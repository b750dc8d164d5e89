//! Differential tests for the GEMM-lowered conv kernels.
//!
//! Every conv pass has a direct nested-loop kernel and a lowering onto the
//! register tile `simd::gemm_tile` (see `src/conv.rs`). This suite pins
//! their relationship:
//!
//! 1. the lowered **forward** is *bitwise* equal to the direct oracle on
//!    random shapes — same per-element accumulation order by construction;
//! 2. the lowered **backwards** agree with the direct kernels to the f32
//!    error model `1e-5 · Σ|terms|` (their reduction order differs in
//!    association, deterministically);
//! 3. all three lowered passes are *bitwise* equal, under every SIMD
//!    backend the CPU supports, to slab references written here from
//!    public primitives: an explicit im2col/im2row unfold, `gemm_row_with`
//!    per output row and a col2im pass of `add_assign_with`, which state
//!    each association independently of the tile's layout. This pins the
//!    backward associations — `G` chained over `co`, then summed in
//!    ascending `j`; one chain over `(b, t)` per weight — on AVX2 and SSE2,
//!    where the golden training fixture (scalar) cannot see them;
//! 4. finite differences confirm the lowered gradients — driven through
//!    the pooled-buffer path the training loop uses.
//!
//! Shapes deliberately include kernels **longer than the sequence**
//! (`k > l`, where the pad exceeds the sequence) and **even** kernel widths
//! (asymmetric "same" padding). The tests run kernels under the
//! process-wide SIMD backend, which (3) switches, so every test holds
//! [`backend_lock`].

use lightts_tensor::conv::{
    conv1d_backward_input_direct, conv1d_backward_input_lowered, conv1d_backward_weight_direct,
    conv1d_backward_weight_lowered, conv1d_forward, conv1d_forward_direct, same_padding,
};
use lightts_tensor::simd::{
    add_assign_with, backend, cpu_supports, gemm_row_with, set_simd_backend, SimdBackend,
};
use lightts_tensor::Tensor;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this binary around the process-wide backend.
static BACKEND: Mutex<()> = Mutex::new(());

fn backend_lock() -> MutexGuard<'static, ()> {
    BACKEND.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shapes for the randomized cases. `MAX_K > MAX_L` so `k > l` (the pad
/// exceeds the sequence) is genuinely exercised, and `MAX_CO` is large
/// enough that the register tile runs full 6-row blocks and remainders.
const MAX_B: usize = 3;
const MAX_C: usize = 4;
const MAX_CO: usize = 12;
const MAX_L: usize = 48;
const MAX_K: usize = 56;

fn tensor_from(data: &[f32], dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(data[..n].to_vec(), dims).unwrap()
}

/// `|t|` elementwise — feeding the direct kernels with absolute values
/// computes the per-element absolute term mass `Σ|terms|` exactly (every
/// product is non-negative, so no cancellation), which is the right scale
/// for association-noise tolerances.
fn abs_tensor(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.data().iter().map(|v| v.abs()).collect(), t.dims()).unwrap()
}

fn assert_close(
    fast: &Tensor,
    slow: &Tensor,
    mag: &Tensor,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.dims(), slow.dims());
    for (i, (a, b)) in fast.data().iter().zip(slow.data().iter()).enumerate() {
        let scale = mag.data()[i].max(1.0);
        prop_assert!(
            (a - b).abs() <= 1e-5 * scale,
            "{} diverges at {}: {} vs {} (term mass {})",
            what,
            i,
            a,
            b,
            scale
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract: the lowered forward accumulates every output
    /// element in the direct kernel's exact `p = ci·k + j` order, so the
    /// two paths must agree to the bit — not within a tolerance.
    #[test]
    fn lowered_forward_is_bitwise_equal_to_direct(
        b in 1usize..MAX_B + 1,
        cin in 1usize..MAX_C + 1,
        cout in 1usize..MAX_CO + 1,
        l in 4usize..MAX_L + 1,
        k in 1usize..MAX_K + 1,
        xs in proptest::collection::vec(-2.0f32..2.0, MAX_B * MAX_C * MAX_L),
        ws in proptest::collection::vec(-2.0f32..2.0, MAX_CO * MAX_C * MAX_K),
    ) {
        let _guard = backend_lock();
        let x = tensor_from(&xs, &[b, cin, l]);
        let w = tensor_from(&ws, &[cout, cin, k]);
        let direct = conv1d_forward_direct(&x, &w).unwrap();
        let lowered = conv1d_forward(&x, &w).unwrap();
        for (i, (d, lo)) in direct.data().iter().zip(lowered.data().iter()).enumerate() {
            prop_assert!(
                d.to_bits() == lo.to_bits(),
                "forward differs at {} (b={} cin={} cout={} l={} k={}): {} vs {}",
                i,
                b,
                cin,
                cout,
                l,
                k,
                d,
                lo
            );
        }
    }

    /// The lowered input gradient reduces `co` inside the tile then sums
    /// `j`-ascending; the direct kernel interleaves them. Different
    /// association, same sum — compare within the f32 error model.
    #[test]
    fn lowered_backward_input_matches_direct(
        b in 1usize..MAX_B + 1,
        cin in 1usize..MAX_C + 1,
        cout in 1usize..MAX_CO + 1,
        l in 4usize..MAX_L + 1,
        k in 1usize..MAX_K + 1,
        dys in proptest::collection::vec(-2.0f32..2.0, MAX_B * MAX_CO * MAX_L),
        ws in proptest::collection::vec(-2.0f32..2.0, MAX_CO * MAX_C * MAX_K),
    ) {
        let _guard = backend_lock();
        let dy = tensor_from(&dys, &[b, cout, l]);
        let w = tensor_from(&ws, &[cout, cin, k]);
        let direct = conv1d_backward_input_direct(&dy, &w, &[b, cin, l]).unwrap();
        let lowered = conv1d_backward_input_lowered(&dy, &w, &[b, cin, l]).unwrap();
        let mag = conv1d_backward_input_direct(&abs_tensor(&dy), &abs_tensor(&w), &[b, cin, l])
            .unwrap();
        assert_close(&lowered, &direct, &mag, "conv1d_backward_input_lowered")?;
    }

    /// The lowered weight gradient chains `(b, t)` ascending through the
    /// tile; the direct kernel adds one `t`-sum per sample.
    #[test]
    fn lowered_backward_weight_matches_direct(
        b in 1usize..MAX_B + 1,
        cin in 1usize..MAX_C + 1,
        cout in 1usize..MAX_CO + 1,
        l in 4usize..MAX_L + 1,
        k in 1usize..MAX_K + 1,
        dys in proptest::collection::vec(-2.0f32..2.0, MAX_B * MAX_CO * MAX_L),
        xs in proptest::collection::vec(-2.0f32..2.0, MAX_B * MAX_C * MAX_L),
    ) {
        let _guard = backend_lock();
        let dy = tensor_from(&dys, &[b, cout, l]);
        let x = tensor_from(&xs, &[b, cin, l]);
        let direct = conv1d_backward_weight_direct(&dy, &x, &[cout, cin, k]).unwrap();
        let lowered = conv1d_backward_weight_lowered(&dy, &x, &[cout, cin, k]).unwrap();
        let mag = conv1d_backward_weight_direct(&abs_tensor(&dy), &abs_tensor(&x), &[cout, cin, k])
            .unwrap();
        assert_close(&lowered, &direct, &mag, "conv1d_backward_weight_lowered")?;
    }
}

/// A batch-8 shape with `cout = 16`, so the lowered forward runs two full
/// 6-row tiles and a 4-row remainder per sample.
fn big_case() -> (Tensor, Tensor) {
    let mut rng = lightts_tensor::rng::seeded(41);
    let x = Tensor::randn(&mut rng, &[8, 4, 128], 1.0);
    let w = Tensor::randn(&mut rng, &[16, 4, 9], 1.0);
    (x, w)
}

/// Finite-difference check of the lowered gradients, driven exactly the way
/// the training loop drives them: repeated calls reusing the thread-local
/// buffer pool (the first call warms the pool, later calls are served from
/// recycled slabs — FD probing makes dozens of such calls).
#[test]
fn lowered_gradients_match_finite_difference_through_pooled_buffers() {
    let _guard = backend_lock();
    let (x, w) = big_case();
    let dy = Tensor::ones(&[8, 16, 128]);
    let dx = conv1d_backward_input_lowered(&dy, &w, x.dims()).unwrap();
    let dw = conv1d_backward_weight_lowered(&dy, &x, w.dims()).unwrap();

    let loss = |x: &Tensor, w: &Tensor| -> f64 {
        conv1d_forward(x, w).unwrap().data().iter().copied().map(f64::from).sum()
    };
    let eps = 1e-2f32;

    let mut rng = lightts_tensor::rng::seeded(301);
    use rand::Rng;
    for _ in 0..10 {
        let i = rng.gen_range(0..x.len());
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let fd = (loss(&xp, &w) - loss(&xm, &w)) / f64::from(2.0 * eps);
        let got = f64::from(dx.data()[i]);
        assert!((got - fd).abs() < 2e-2 * fd.abs().max(1.0), "dx[{i}] = {got} vs fd {fd}");
    }
    for _ in 0..10 {
        let i = rng.gen_range(0..w.len());
        let mut wp = w.clone();
        wp.data_mut()[i] += eps;
        let mut wm = w.clone();
        wm.data_mut()[i] -= eps;
        let fd = (loss(&x, &wp) - loss(&x, &wm)) / f64::from(2.0 * eps);
        let got = f64::from(dw.data()[i]);
        assert!((got - fd).abs() < 2e-2 * fd.abs().max(1.0), "dw[{i}] = {got} vs fd {fd}");
    }
}

// ---------------------------------------------------------------------
// Slab references: the lowered passes, bit for bit, on every backend
// ---------------------------------------------------------------------

/// Forward through an explicit `[cin·k, l]` im2col slab and one
/// `gemm_row_with` per output row: `y_b[co] = w[co, :] · X_col`.
fn slab_forward(bk: SimdBackend, x: &Tensor, w: &Tensor) -> Vec<f32> {
    let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (cout, k) = (w.dims()[0], w.dims()[2]);
    let (pl, ck) = (same_padding(k).0, cin * k);
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

/// Input gradient through a packed `Wᵀ`, the `[cin·k, l]` slab
/// `G = Wᵀ · dy_b` (one `gemm_row_with` per row, each chained over `co`
/// from `+0.0`) and a col2im pass adding `G` rows onto `dx` in ascending
/// `j` with `add_assign_with`.
fn slab_backward_input(bk: SimdBackend, dy: &Tensor, w: &Tensor, l: usize) -> Vec<f32> {
    let (b, cout) = (dy.dims()[0], dy.dims()[1]);
    let (cin, k) = (w.dims()[1], w.dims()[2]);
    let (pl, ck) = (same_padding(k).0, cin * k);
    let mut wt = vec![0.0f32; ck * cout];
    for co in 0..cout {
        for p in 0..ck {
            wt[p * cout + co] = w.data()[co * ck + p];
        }
    }
    let mut dx = vec![0.0f32; b * cin * l];
    for bi in 0..b {
        let dy_b = &dy.data()[bi * cout * l..(bi + 1) * cout * l];
        let mut g = vec![0.0f32; ck * l];
        for (p, g_row) in g.chunks_exact_mut(l).enumerate() {
            gemm_row_with(bk, g_row, &wt[p * cout..(p + 1) * cout], dy_b, cout, l);
        }
        for ci in 0..cin {
            let dx_row = &mut dx[(bi * cin + ci) * l..(bi * cin + ci + 1) * l];
            for j in 0..k {
                // t + j - pl in [0, l) ⇒ t in [pl - j, l + pl - j).
                let t_lo = pl.saturating_sub(j).min(l);
                let t_hi = (l + pl).saturating_sub(j).min(l);
                if t_lo < t_hi {
                    let g_row = &g[(ci * k + j) * l..(ci * k + j + 1) * l];
                    add_assign_with(
                        bk,
                        &mut dx_row[t_lo + j - pl..t_hi + j - pl],
                        &g_row[t_lo..t_hi],
                    );
                }
            }
        }
    }
    dx
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
/// that are not multiples of 8 or 16; `cin` and `b` cycle through 1..=3.
/// Zeros: scattered in `w` and `dy`, a whole output channel of `w`, every
/// weight at `j = 1` (so whole tile steps are skipped in the forward and
/// input gradient), and whole time steps of `dy` (skipped steps in the
/// weight gradient).
#[test]
fn lowered_passes_match_slab_references_bitwise_on_every_backend() {
    let _guard = backend_lock();
    let before = backend();
    let backends = [SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2]
        .into_iter()
        .filter(|&bk| cpu_supports(bk));
    for bk in backends {
        assert_eq!(set_simd_backend(bk), bk);
        for cout in 1..=13usize {
            for (case, &(l, k)) in
                [(13usize, 1usize), (13, 16), (5, 40), (29, 4), (64, 10), (19, 40), (70, 5)]
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
                assert_bits(y.data(), &slab_forward(bk, &x, &w), &format!("forward {what}"));
                let dx = conv1d_backward_input_lowered(&dy, &w, x.dims()).unwrap();
                let want = slab_backward_input(bk, &dy, &w, l);
                assert_bits(dx.data(), &want, &format!("backward_input {what}"));
                let dw = conv1d_backward_weight_lowered(&dy, &x, w.dims()).unwrap();
                let want = slab_backward_weight(bk, &dy, &x, k);
                assert_bits(dw.data(), &want, &format!("backward_weight {what}"));
            }
        }
    }
    set_simd_backend(before);
}

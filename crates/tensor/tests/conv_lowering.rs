//! Differential tests for the GEMM-lowered conv kernels.
//!
//! Every conv pass has two implementations: the direct nested-loop oracle
//! and the im2col/kn2row lowering onto the shared GEMM kernels (see
//! `src/conv.rs`). This suite pins their relationship:
//!
//! 1. the lowered **forward** is *bitwise* equal to the direct oracle on
//!    random shapes — same per-element accumulation order by construction;
//! 2. the lowered **backwards** agree with the oracle to the f32 error
//!    model `1e-5 · Σ|terms|` (their reduction order differs in
//!    association, deterministically);
//! 3. finite differences confirm the lowered gradients — driven through
//!    the pooled-buffer path the training loop uses.
//!
//! Shapes deliberately include kernels **longer than the sequence**
//! (`k > l`, exercising the padding clamps in im2col/col2im) and **even**
//! kernel widths (asymmetric "same" padding).

use lightts_tensor::conv::{
    conv1d_backward_input_direct, conv1d_backward_input_lowered, conv1d_backward_weight_direct,
    conv1d_backward_weight_lowered, conv1d_forward_direct, conv1d_forward_lowered,
};
use lightts_tensor::Tensor;
use proptest::prelude::*;

/// Shapes for the randomized cases. `MAX_K > MAX_L` so the padding clamps
/// (`k > l` means the pad exceeds the sequence) are genuinely exercised,
/// and `MAX_CO` is large enough that the panel GEMM hits its 4-row blocks,
/// the 4-row remainder, and the row-by-row tail.
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

    /// The headline contract: the im2col forward accumulates every output
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
        let x = tensor_from(&xs, &[b, cin, l]);
        let w = tensor_from(&ws, &[cout, cin, k]);
        let direct = conv1d_forward_direct(&x, &w).unwrap();
        let lowered = conv1d_forward_lowered(&x, &w).unwrap();
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

    /// The kn2row input gradient reduces `co` inside the GEMM then scatters
    /// `j`-ascending; the direct oracle interleaves them. Different
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
        let dy = tensor_from(&dys, &[b, cout, l]);
        let w = tensor_from(&ws, &[cout, cin, k]);
        let direct = conv1d_backward_input_direct(&dy, &w, &[b, cin, l]).unwrap();
        let lowered = conv1d_backward_input_lowered(&dy, &w, &[b, cin, l]).unwrap();
        let mag = conv1d_backward_input_direct(&abs_tensor(&dy), &abs_tensor(&w), &[b, cin, l])
            .unwrap();
        assert_close(&lowered, &direct, &mag, "conv1d_backward_input_lowered")?;
    }

    /// The im2col weight gradient reduces `t` inside the GEMM and sums the
    /// batch outside; the direct oracle nests `b` outer, `t` inner.
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
        let dy = tensor_from(&dys, &[b, cout, l]);
        let x = tensor_from(&xs, &[b, cin, l]);
        let direct = conv1d_backward_weight_direct(&dy, &x, &[cout, cin, k]).unwrap();
        let lowered = conv1d_backward_weight_lowered(&dy, &x, &[cout, cin, k]).unwrap();
        let mag = conv1d_backward_weight_direct(&abs_tensor(&dy), &abs_tensor(&x), &[cout, cin, k])
            .unwrap();
        assert_close(&lowered, &direct, &mag, "conv1d_backward_weight_lowered")?;
    }
}

/// A batch-8 shape with `cout = 16`, so the lowered forward runs four full
/// 4-row GEMM panels per sample.
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
    let (x, w) = big_case();
    let dy = Tensor::ones(&[8, 16, 128]);
    let dx = conv1d_backward_input_lowered(&dy, &w, x.dims()).unwrap();
    let dw = conv1d_backward_weight_lowered(&dy, &x, w.dims()).unwrap();

    let loss = |x: &Tensor, w: &Tensor| -> f64 {
        conv1d_forward_lowered(x, w).unwrap().data().iter().copied().map(f64::from).sum()
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

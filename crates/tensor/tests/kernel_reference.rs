//! Reference tests for the tensor kernels:
//!
//! 1. the conv passes, matmul, the elementwise ops and the sum are compared
//!    on random inputs against independent brute-force references written
//!    directly from the math, accumulated in f64 (tolerance
//!    `1e-5 · Σ|terms|`);
//! 2. both conv backward passes are checked against finite differences on
//!    a batch-8 shape.
//!
//! The library keeps one kernel per conv pass and no oracle beside it:
//! the oracles are these references, `conv_ref` in the conv unit tests and
//! the slab references of `conv_lowering.rs`, which pin the kernels' bits
//! on every SIMD backend. The randomized conv shapes draw `k` past `l`
//! (the pad exceeds the sequence) and `cout` up to 12, so the register
//! tile runs a full 6-row block plus a remainder.

use lightts_tensor::conv::{
    conv1d_backward_input, conv1d_backward_weight, conv1d_forward, same_padding,
};
use lightts_tensor::Tensor;
use proptest::prelude::*;

/// Shapes used by the randomized cases. Data vectors are generated at the
/// maximum size and sliced down, since the vendored proptest has no
/// dependent (`prop_flat_map`) strategies. `MAX_K > MAX_L`, so `k > l` is
/// drawn in about half of the conv cases.
const MAX_B: usize = 4;
const MAX_C: usize = 4;
const MAX_CO: usize = 12;
const MAX_L: usize = 64;
const MAX_K: usize = 72;

fn tensor_from(data: &[f32], dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(data[..n].to_vec(), dims).unwrap()
}

/// Brute-force "same" conv, written from the definition
/// `y[b,co,t] = Σ_ci Σ_j x[b,ci,t+j−pl] · w[co,ci,j]`.
fn conv_forward_ref(x: &Tensor, w: &Tensor) -> (Tensor, Tensor) {
    let (b, cin, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (cout, _, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    let (pl, _) = same_padding(k);
    let mut y = Tensor::zeros(&[b, cout, l]);
    let mut mag = Tensor::zeros(&[b, cout, l]);
    for bi in 0..b {
        for co in 0..cout {
            for t in 0..l {
                let mut acc = 0.0f64;
                let mut abs = 0.0f64;
                for ci in 0..cin {
                    for j in 0..k {
                        let s = t as isize + j as isize - pl as isize;
                        if s >= 0 && (s as usize) < l {
                            let term = f64::from(x.get(&[bi, ci, s as usize]).unwrap())
                                * f64::from(w.get(&[co, ci, j]).unwrap());
                            acc += term;
                            abs += term.abs();
                        }
                    }
                }
                y.set(&[bi, co, t], acc as f32).unwrap();
                mag.set(&[bi, co, t], abs as f32).unwrap();
            }
        }
    }
    (y, mag)
}

/// Brute-force input gradient: `dx[b,ci,s] = Σ_co Σ_j dy[b,co,s−j+pl] · w[co,ci,j]`.
fn conv_backward_input_ref(dy: &Tensor, w: &Tensor, input_dims: &[usize]) -> (Tensor, Tensor) {
    let (b, cin, l) = (input_dims[0], input_dims[1], input_dims[2]);
    let (cout, _, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
    let (pl, _) = same_padding(k);
    let mut dx = Tensor::zeros(&[b, cin, l]);
    let mut mag = Tensor::zeros(&[b, cin, l]);
    for bi in 0..b {
        for ci in 0..cin {
            for s in 0..l {
                let mut acc = 0.0f64;
                let mut abs = 0.0f64;
                for co in 0..cout {
                    for j in 0..k {
                        let t = s as isize - j as isize + pl as isize;
                        if t >= 0 && (t as usize) < l {
                            let term = f64::from(dy.get(&[bi, co, t as usize]).unwrap())
                                * f64::from(w.get(&[co, ci, j]).unwrap());
                            acc += term;
                            abs += term.abs();
                        }
                    }
                }
                dx.set(&[bi, ci, s], acc as f32).unwrap();
                mag.set(&[bi, ci, s], abs as f32).unwrap();
            }
        }
    }
    (dx, mag)
}

/// Brute-force weight gradient: `dw[co,ci,j] = Σ_b Σ_t dy[b,co,t] · x[b,ci,t+j−pl]`.
fn conv_backward_weight_ref(dy: &Tensor, x: &Tensor, weight_dims: &[usize]) -> (Tensor, Tensor) {
    let (cout, cin, k) = (weight_dims[0], weight_dims[1], weight_dims[2]);
    let (b, _, l) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let (pl, _) = same_padding(k);
    let mut dw = Tensor::zeros(&[cout, cin, k]);
    let mut mag = Tensor::zeros(&[cout, cin, k]);
    for co in 0..cout {
        for ci in 0..cin {
            for j in 0..k {
                let mut acc = 0.0f64;
                let mut abs = 0.0f64;
                for bi in 0..b {
                    for t in 0..l {
                        let s = t as isize + j as isize - pl as isize;
                        if s >= 0 && (s as usize) < l {
                            let term = f64::from(dy.get(&[bi, co, t]).unwrap())
                                * f64::from(x.get(&[bi, ci, s as usize]).unwrap());
                            acc += term;
                            abs += term.abs();
                        }
                    }
                }
                dw.set(&[co, ci, j], acc as f32).unwrap();
                mag.set(&[co, ci, j], abs as f32).unwrap();
            }
        }
    }
    (dw, mag)
}

/// Asserts `fast` matches the f64-accumulated reference `slow` within
/// `1e-5 · max(Σ|terms|, 1)` per element — the f32 error model for a sum
/// whose absolute term mass is `mag` (association noise is proportional to
/// the accumulated magnitude, not the possibly-cancelled result).
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

    #[test]
    fn conv_forward_matches_reference(
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
        let fast = conv1d_forward(&x, &w).unwrap();
        let (slow, mag) = conv_forward_ref(&x, &w);
        assert_close(&fast, &slow, &mag, "conv1d_forward")?;
    }

    #[test]
    fn conv_backward_input_matches_reference(
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
        let fast = conv1d_backward_input(&dy, &w, &[b, cin, l]).unwrap();
        let (slow, mag) = conv_backward_input_ref(&dy, &w, &[b, cin, l]);
        assert_close(&fast, &slow, &mag, "conv1d_backward_input")?;
    }

    #[test]
    fn conv_backward_weight_matches_reference(
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
        let fast = conv1d_backward_weight(&dy, &x, &[cout, cin, k]).unwrap();
        let (slow, mag) = conv_backward_weight_ref(&dy, &x, &[cout, cin, k]);
        assert_close(&fast, &slow, &mag, "conv1d_backward_weight")?;
    }

    #[test]
    fn matmul_matches_naive_triple_loop(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        avals in proptest::collection::vec(-2.0f32..2.0, 24 * 24),
        bvals in proptest::collection::vec(-2.0f32..2.0, 24 * 24),
    ) {
        let a = tensor_from(&avals, &[m, k]);
        let b = tensor_from(&bvals, &[k, n]);
        let fast = a.matmul(&b).unwrap();
        // independent ijk ordering in f64 (the kernel is the f32 register
        // tile: one chain per output, `k`-ascending)
        let mut slow = vec![0.0f32; m * n];
        let mut mags = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                let mut abs = 0.0f64;
                for p in 0..k {
                    let term = f64::from(avals[i * k + p]) * f64::from(bvals[p * n + j]);
                    acc += term;
                    abs += term.abs();
                }
                slow[i * n + j] = acc as f32;
                mags[i * n + j] = abs as f32;
            }
        }
        let slow = Tensor::from_vec(slow, &[m, n]).unwrap();
        let mag = Tensor::from_vec(mags, &[m, n]).unwrap();
        assert_close(&fast, &slow, &mag, "matmul")?;
    }

    #[test]
    fn elementwise_and_reductions_match_naive(
        n in 1usize..40_000,
        vals in proptest::collection::vec(-2.0f32..2.0, 40_000),
        s in -2.0f32..2.0,
    ) {
        let a = tensor_from(&vals, &[n]);
        let b = tensor_from(&vals[1..], &[n]);
        let sum_fast = a.add(&b).unwrap();
        let mul_fast = a.mul(&b).unwrap();
        let scale_fast = a.scale(s);
        for i in 0..n {
            prop_assert_eq!(sum_fast.data()[i], vals[i] + vals[i + 1]);
            prop_assert_eq!(mul_fast.data()[i], vals[i] * vals[i + 1]);
            prop_assert_eq!(scale_fast.data()[i], vals[i] * s);
        }
        // chunked sum vs f64 accumulation: loose tolerance covers the
        // (deterministic) difference in association
        let exact: f64 = vals[..n].iter().map(|&v| f64::from(v)).sum();
        prop_assert!(
            (f64::from(a.sum()) - exact).abs() <= 1e-2 * exact.abs().max(1.0),
            "sum {} vs f64 {}",
            a.sum(),
            exact
        );
    }
}

/// A batch-8 conv shape with `cout = 8`: a full 6-row tile plus a 2-row
/// remainder per sample.
fn big_conv_case() -> (Tensor, Tensor) {
    let mut rng = lightts_tensor::rng::seeded(99);
    let x = Tensor::randn(&mut rng, &[8, 4, 128], 1.0);
    let w = Tensor::randn(&mut rng, &[8, 4, 9], 1.0);
    (x, w)
}

/// Finite-difference check of both conv gradients on the batch-8 shape,
/// driven the way the training loop drives the kernels: repeated calls
/// served from the thread-local buffer pool. Only a sample of coordinates
/// is probed — full FD on this shape would dominate the suite.
#[test]
fn conv_gradients_match_finite_difference_on_large_shapes() {
    let (x, w) = big_conv_case();
    let dy = Tensor::ones(&[8, 8, 128]);
    let dx = conv1d_backward_input(&dy, &w, x.dims()).unwrap();
    let dw = conv1d_backward_weight(&dy, &x, w.dims()).unwrap();

    // f64 accumulation keeps the FD difference clear of f32 reduction noise
    let loss = |x: &Tensor, w: &Tensor| -> f64 {
        conv1d_forward(x, w).unwrap().data().iter().copied().map(f64::from).sum()
    };
    let eps = 1e-2f32;

    let mut rng = lightts_tensor::rng::seeded(123);
    use rand::Rng;
    for _ in 0..12 {
        let i = rng.gen_range(0..x.len());
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let fd = (loss(&xp, &w) - loss(&xm, &w)) / f64::from(2.0 * eps);
        let got = f64::from(dx.data()[i]);
        assert!((got - fd).abs() < 2e-2 * fd.abs().max(1.0), "dx[{i}] = {got} vs fd {fd}");
    }
    for _ in 0..12 {
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

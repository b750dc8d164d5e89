//! Bitwise pins of the training step's non-conv ops: `batch_norm`, `relu`,
//! `add_bias`, `concat_channels`, `gap`, `fake_quant` and the losses,
//! forward and backward, through the public [`Tape`] and
//! [`fake_quantize`].
//!
//! Each reference below is the loop these ops ran before they became one
//! pass per output, copied as it was: per-channel sums accumulated into
//! `Vec` elements in the inner loop, ReLU's gradient as a 0/1 mask times
//! `dy`, the MSE gradient as a difference then a scale, and so on. The
//! rewritten ops must give their bits on every backend the CPU runs,
//! compared with `to_bits`, so NaN payloads and the sign of zero count.
//!
//! A backward rule is reached through an MSE loss against a fixed target,
//! `dy = (y − t)·(2/n)`, so `dy` varies per element; the gradients are read
//! at the leaves. Shapes are the student's and the teachers' batch-norm
//! activations, an odd small one, the dense head's bias, and the student's
//! weight banks for fake quantization, with edge inputs: ±0, NaN, ±inf,
//! constant tensors (quantization step 0), codes exactly on `.5` and codes
//! of 2²³ and more.
//!
//! The tests switch the process-wide SIMD backend, so each holds one lock
//! around it.

use lightts_tensor::quant::fake_quantize;
use lightts_tensor::simd::{cpu_supports, set_simd_backend, SimdBackend};
use lightts_tensor::tape::{Tape, Var};
use lightts_tensor::Tensor;
use std::sync::Mutex;

/// Serializes the tests of this binary around the process-wide backend.
static BACKEND: Mutex<()> = Mutex::new(());

/// Runs `check` under every backend the CPU runs, holding the lock.
fn on_every_backend(check: impl Fn()) {
    let _guard = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    for bk in [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512] {
        if cpu_supports(bk) {
            assert_eq!(set_simd_backend(bk), bk);
            check();
        }
    }
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// `n` values in `[-scale, scale)` from a small LCG.
fn data(n: usize, seed: u32, scale: f32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761).max(1);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((s >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0) * scale
        })
        .collect()
}

/// ±0, NaN and ±inf.
const SPECIALS: &[f32] = &[0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

/// [`SPECIALS`] but −inf, for inputs that feed a sum: without both
/// infinities no chain meets `inf − inf`, whose NaN has another payload
/// than `f32::NAN`, so every NaN a chain adds has one payload.
const SUMMABLE: &[f32] = &[0.0, -0.0, f32::NAN, f32::INFINITY];

/// `v` with every seventh value replaced by one of `specials`.
fn with_specials(mut v: Vec<f32>, specials: &[f32]) -> Vec<f32> {
    for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 7 == 3) {
        *x = specials[(i / 7) % specials.len()];
    }
    v
}

fn tensor(v: Vec<f32>, dims: &[usize]) -> Tensor {
    Tensor::from_vec(v, dims).unwrap()
}

/// Adds `mse_to_target(y, t)` and runs the backward pass from it.
fn mse_backward(tape: &mut Tape, y: Var, t: &Tensor) -> lightts_tensor::tape::Grads {
    let loss = tape.mse_to_target(y, t).unwrap();
    tape.backward(loss).unwrap()
}

// ---------------------------------------------------------------------
// References: the loops before the rewrite
// ---------------------------------------------------------------------

/// `Tape::mse_to_target` forward, then its gradient at a root of 1.
fn mse_ref(x: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    let n = x.len().max(1);
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(target.iter()) {
        acc += (a - b) * (a - b);
    }
    let g = 1.0f32 * 2.0 / n as f32;
    let mut diff: Vec<f32> = x.iter().zip(target).map(|(&a, &b)| a - b).collect();
    for d in &mut diff {
        *d *= g;
    }
    (acc / n as f32, diff)
}

struct BnRef {
    y: Vec<f32>,
    x_hat: Vec<f32>,
    inv_std: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
}

#[allow(clippy::needless_range_loop)]
fn bn_forward_ref(x: &[f32], dims: [usize; 3], g: &[f32], be: &[f32], eps: f32) -> BnRef {
    let [b, c, l] = dims;
    let m = (b * l) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            for &v in &x[off..off + l] {
                mean[ci] += v;
            }
        }
    }
    for mu in &mut mean {
        *mu /= m;
    }
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            for &v in &x[off..off + l] {
                let d = v - mean[ci];
                var[ci] += d * d;
            }
        }
    }
    for vv in &mut var {
        *vv /= m;
    }
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
    let mut x_hat = vec![0.0f32; b * c * l];
    let mut out = vec![0.0f32; b * c * l];
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            for t in 0..l {
                let xh = (x[off + t] - mean[ci]) * inv_std[ci];
                x_hat[off + t] = xh;
                out[off + t] = g[ci] * xh + be[ci];
            }
        }
    }
    BnRef { y: out, x_hat, inv_std, mean, var }
}

/// `(dx, dγ, dβ)` of batch-norm.
#[allow(clippy::needless_range_loop)]
fn bn_backward_ref(
    gy: &[f32],
    dims: [usize; 3],
    fwd: &BnRef,
    gv: &[f32],
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let [b, c, l] = dims;
    let m = (b * l) as f32;
    let mut sum_dy = vec![0.0f32; c];
    let mut sum_dy_xhat = vec![0.0f32; c];
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            for t in 0..l {
                let dy = gy[off + t];
                sum_dy[ci] += dy;
                sum_dy_xhat[ci] += dy * fwd.x_hat[off + t];
            }
        }
    }
    let mut gx = vec![0.0f32; b * c * l];
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            let coeff = gv[ci] * fwd.inv_std[ci] / m;
            for t in 0..l {
                let dy = gy[off + t];
                let xh = fwd.x_hat[off + t];
                gx[off + t] = coeff * (m * dy - sum_dy[ci] - xh * sum_dy_xhat[ci]);
            }
        }
    }
    (gx, sum_dy_xhat, sum_dy)
}

/// `add_bias` forward and the bias gradient, at rank 2 or 3.
#[allow(clippy::needless_range_loop)]
fn add_bias_ref(x: &[f32], dims: &[usize], bias: &[f32], gy: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut out = x.to_vec();
    let mut gb = vec![0.0f32; bias.len()];
    if let [b, k] = *dims {
        for bi in 0..b {
            for ci in 0..k {
                out[bi * k + ci] += bias[ci];
            }
        }
        for bi in 0..b {
            for ci in 0..k {
                gb[ci] += gy[bi * k + ci];
            }
        }
    } else {
        let (b, ch, l) = (dims[0], dims[1], dims[2]);
        for bi in 0..b {
            for ci in 0..ch {
                let off = (bi * ch + ci) * l;
                let bias_v = bias[ci];
                for o in &mut out[off..off + l] {
                    *o += bias_v;
                }
            }
        }
        for bi in 0..b {
            for ci in 0..ch {
                let off = (bi * ch + ci) * l;
                gb[ci] += gy[off..off + l].iter().sum::<f32>();
            }
        }
    }
    (out, gb)
}

fn gap_ref(x: &[f32], [b, c, l]: [usize; 3]) -> Vec<f32> {
    let mut out = vec![0.0f32; b * c];
    for bi in 0..b {
        for ci in 0..c {
            let off = (bi * c + ci) * l;
            out[bi * c + ci] = x[off..off + l].iter().sum::<f32>() / l as f32;
        }
    }
    out
}

fn gap_backward_ref(gy: &[f32], [b, c, l]: [usize; 3]) -> Vec<f32> {
    let mut gx = vec![0.0f32; b * c * l];
    for bi in 0..b {
        for ci in 0..c {
            let g = gy[bi * c + ci] / l as f32;
            let off = (bi * c + ci) * l;
            for v in &mut gx[off..off + l] {
                *v = g;
            }
        }
    }
    gx
}

/// `fake_quantize`: `QuantParams::fit`, then `quantize` per element.
fn fake_quantize_ref(data: &[f32], bits: u8) -> Vec<f32> {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in data {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let levels = if bits >= 31 { u32::MAX } else { (1u32 << bits) - 1 };
    let step = if hi > lo { (hi - lo) / levels as f32 } else { 0.0 };
    let zero_point = lo;
    data.iter()
        .map(|&v| {
            if step == 0.0 {
                return zero_point;
            }
            let max_code = ((1u64 << bits.min(32)) - 1) as f32;
            let code = ((v - zero_point) / step).round().clamp(0.0, max_code);
            zero_point + code * step
        })
        .collect()
}

// ---------------------------------------------------------------------
// The pins
// ---------------------------------------------------------------------

const BN_SHAPES: [[usize; 3]; 3] = [[32, 18, 64], [64, 18, 64], [3, 7, 5]];

#[test]
fn batch_norm_forward_and_backward_keep_their_bits() {
    on_every_backend(|| {
        for (si, dims) in BN_SHAPES.into_iter().enumerate() {
            let [b, c, l] = dims;
            let n = b * c * l;
            let seed = si as u32 * 10;
            let mut x = data(n, seed + 1, 3.0);
            if si == 2 {
                // ±0 entries and one constant channel (variance 0)
                for (i, v) in x.iter_mut().enumerate() {
                    if (i / l) % c == 1 {
                        *v = 0.75;
                    } else if i % 5 == 0 {
                        *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
            }
            let gamma = data(c, seed + 2, 1.5);
            let beta = data(c, seed + 3, 0.5);
            let target = data(n, seed + 4, 2.0);
            let mut tape = Tape::new();
            let xv = tape.leaf(tensor(x.clone(), &dims), true);
            let gv = tape.leaf(tensor(gamma.clone(), &[c]), true);
            let bv = tape.leaf(tensor(beta.clone(), &[c]), true);
            let (y, mean, var) = tape.batch_norm(xv, gv, bv, 1e-5).unwrap();
            let fwd = bn_forward_ref(&x, dims, &gamma, &beta, 1e-5);
            let what = |s: &str| format!("bn {dims:?} {s}");
            assert_bits(&what("y"), tape.value(y).unwrap().data(), &fwd.y);
            assert_bits(&what("mean"), &mean, &fwd.mean);
            assert_bits(&what("var"), &var, &fwd.var);
            let grads = mse_backward(&mut tape, y, &tensor(target.clone(), &dims));
            let (_, dy) = mse_ref(&fwd.y, &target);
            let (dx, dgamma, dbeta) = bn_backward_ref(&dy, dims, &fwd, &gamma);
            assert_bits(&what("dx"), grads.get(xv).unwrap().data(), &dx);
            assert_bits(&what("dgamma"), grads.get(gv).unwrap().data(), &dgamma);
            assert_bits(&what("dbeta"), grads.get(bv).unwrap().data(), &dbeta);
        }
    });
}

#[test]
fn relu_forward_and_backward_keep_their_bits() {
    on_every_backend(|| {
        for (dims, specials) in
            [(vec![32, 18, 64], false), (vec![3, 7, 5], true), (vec![32, 37], true)]
        {
            let n: usize = dims.iter().product();
            let mut x = data(n, 5, 2.0);
            if specials {
                x = with_specials(x, SPECIALS);
            }
            let target = data(n, 6, 1.0);
            let mut tape = Tape::new();
            let xv = tape.leaf(tensor(x.clone(), &dims), true);
            let y = tape.relu(xv).unwrap();
            let want_y: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
            assert_bits("relu y", tape.value(y).unwrap().data(), &want_y);
            let grads = mse_backward(&mut tape, y, &tensor(target.clone(), &dims));
            let (_, dy) = mse_ref(&want_y, &target);
            let mask: Vec<f32> = x.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect();
            let dx: Vec<f32> = dy.iter().zip(&mask).map(|(&g, &m)| g * m).collect();
            assert_bits("relu dx", grads.get(xv).unwrap().data(), &dx);
        }
    });
}

#[test]
fn add_bias_forward_and_backward_keep_their_bits() {
    on_every_backend(|| {
        for (dims, specials) in [
            (vec![32, 37], false),
            (vec![32, 6, 64], false),
            (vec![3, 7, 5], true),
            (vec![5, 3], true),
        ] {
            let n: usize = dims.iter().product();
            let c = dims[1];
            let mut x = data(n, 7, 2.0);
            if specials {
                x = with_specials(x, SUMMABLE);
            }
            let bias = data(c, 8, 0.5);
            let target = data(n, 9, 1.0);
            let mut tape = Tape::new();
            let xv = tape.leaf(tensor(x.clone(), &dims), true);
            let bv = tape.leaf(tensor(bias.clone(), &[c]), true);
            let y = tape.add_bias(xv, bv).unwrap();
            let (want_y, _) = add_bias_ref(&x, &dims, &bias, &vec![0.0; n]);
            assert_bits("bias y", tape.value(y).unwrap().data(), &want_y);
            let grads = mse_backward(&mut tape, y, &tensor(target.clone(), &dims));
            let (_, dy) = mse_ref(&want_y, &target);
            let (_, db) = add_bias_ref(&x, &dims, &bias, &dy);
            assert_bits("bias dx", grads.get(xv).unwrap().data(), &dy);
            assert_bits("bias db", grads.get(bv).unwrap().data(), &db);
        }
    });
}

#[test]
fn concat_channels_and_gap_keep_their_bits() {
    on_every_backend(|| {
        for (b, l, widths) in [(32, 64, vec![6, 6, 6]), (3, 5, vec![2, 1, 4])] {
            let parts: Vec<Vec<f32>> = widths
                .iter()
                .enumerate()
                .map(|(i, &c)| with_specials(data(b * c * l, 20 + i as u32, 2.0), SUMMABLE))
                .collect();
            let c_total: usize = widths.iter().sum();
            let dims = [b, c_total, l];
            let mut tape = Tape::new();
            let vars: Vec<Var> = parts
                .iter()
                .zip(&widths)
                .map(|(p, &c)| tape.leaf(tensor(p.clone(), &[b, c, l]), true))
                .collect();
            let cat = tape.concat_channels(&vars).unwrap();
            let mut want_cat = vec![0.0f32; b * c_total * l];
            let mut c_off = 0;
            for (p, &ci) in parts.iter().zip(&widths) {
                for bi in 0..b {
                    let dst = (bi * c_total + c_off) * l;
                    want_cat[dst..dst + ci * l].copy_from_slice(&p[bi * ci * l..(bi + 1) * ci * l]);
                }
                c_off += ci;
            }
            assert_bits("concat y", tape.value(cat).unwrap().data(), &want_cat);
            let pooled = tape.gap(cat).unwrap();
            let want_gap = gap_ref(&want_cat, dims);
            assert_bits("gap y", tape.value(pooled).unwrap().data(), &want_gap);
            let target = data(b * c_total, 30, 1.0);
            let grads = mse_backward(&mut tape, pooled, &tensor(target.clone(), &[b, c_total]));
            let (_, dy) = mse_ref(&want_gap, &target);
            let dcat = gap_backward_ref(&dy, dims);
            let mut c_off = 0;
            for (v, &ci) in vars.iter().zip(&widths) {
                let mut want = vec![0.0f32; b * ci * l];
                for bi in 0..b {
                    let src = (bi * c_total + c_off) * l;
                    want[bi * ci * l..(bi + 1) * ci * l].copy_from_slice(&dcat[src..src + ci * l]);
                }
                assert_bits("concat/gap dx", grads.get(*v).unwrap().data(), &want);
                c_off += ci;
            }
        }
    });
}

/// The student's weight banks: three conv filter shapes, the FC head and
/// a conv bias.
const BANKS: [&[usize]; 5] = [&[6, 1, 40], &[6, 18, 40], &[6, 18, 10], &[18, 37], &[6]];

/// Edge inputs for fake quantization, each with the bit-widths it runs at.
fn quant_edges() -> Vec<(Vec<f32>, &'static [u8])> {
    let all: &[u8] = &[1, 4, 8, 16, 24, 31];
    let mut mixed = data(64, 40, 1.0);
    for (i, v) in mixed.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
        *v = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    vec![
        (mixed, all),
        (with_specials(data(40, 41, 1.0), SPECIALS), all),
        (vec![f32::NAN, 1.0, -2.0, 0.5, f32::NAN, 3.0, -0.0, 0.0, 2.5], all),
        (vec![1.0, f32::INFINITY, -1.0, 0.0], all),
        (vec![1.0, f32::NEG_INFINITY, -1.0, 0.0], all),
        (vec![0.75; 13], all),
        (vec![-0.0, 0.0, -0.0, 0.0, 0.0], all),
        (vec![f32::NAN; 3], all),
        // range [0, 15] at 4 bits: step 1, so x.5 lands exactly on .5
        ((0..31).map(|i| i as f32 * 0.5).collect(), &[4]),
        // 24 and 31 bits: codes of 2²³ and more
        ((0..40).map(|i| i as f32 * 1.0e-3 - 7.0).collect(), &[24, 31]),
        (data(4099, 42, 100.0), &[24, 31]),
    ]
}

#[test]
fn fake_quantize_keeps_its_bits() {
    on_every_backend(|| {
        for (bi, dims) in BANKS.iter().enumerate() {
            let n: usize = dims.iter().product();
            let w = data(n, 50 + bi as u32, 0.3);
            for bits in [1u8, 4, 8, 16] {
                let got = fake_quantize(&tensor(w.clone(), dims), bits).unwrap();
                assert_bits(
                    &format!("bank {dims:?} at {bits} bits"),
                    got.data(),
                    &fake_quantize_ref(&w, bits),
                );
            }
        }
        for (i, (v, bits)) in quant_edges().into_iter().enumerate() {
            for &b in bits {
                let got = fake_quantize(&tensor(v.clone(), &[v.len()]), b).unwrap();
                assert_bits(
                    &format!("edge {i} at {b} bits"),
                    got.data(),
                    &fake_quantize_ref(&v, b),
                );
            }
        }
    });
}

#[test]
fn fake_quant_op_is_straight_through_bit_for_bit() {
    on_every_backend(|| {
        let dims = [6, 18, 10];
        let n = 6 * 18 * 10;
        let w = data(n, 60, 0.3);
        let target = data(n, 61, 0.3);
        let mut tape = Tape::new();
        let wv = tape.leaf(tensor(w.clone(), &dims), true);
        let q = tape.fake_quant(wv, 4).unwrap();
        let want_q = fake_quantize_ref(&w, 4);
        assert_bits("fake_quant y", tape.value(q).unwrap().data(), &want_q);
        let grads = mse_backward(&mut tape, q, &tensor(target.clone(), &dims));
        let (_, dy) = mse_ref(&want_q, &target);
        assert_bits("fake_quant dx", grads.get(wv).unwrap().data(), &dy);
    });
}

/// The distillation loss of Eq. 2 on one batch: `α·NLL + w·KL`, both on
/// one log-softmax, as the student trainer builds it.
#[test]
fn distillation_losses_keep_their_bits() {
    on_every_backend(|| {
        let (b, k) = (32, 5);
        let (alpha, w) = (0.3f32, 0.35f32);
        let logits = data(b * k, 70, 3.0);
        let targets: Vec<usize> = (0..b).map(|i| (i * 7) % k).collect();
        let mut q = data(b * k, 71, 1.0).iter().map(|v| v.abs()).collect::<Vec<f32>>();
        q[3] = 0.0;
        q[17] = 0.0;
        let mut tape = Tape::new();
        let xv = tape.leaf(tensor(logits.clone(), &[b, k]), true);
        let lp = tape.log_softmax(xv).unwrap();
        let ce = tape.nll_mean(lp, &targets).unwrap();
        let s1 = tape.scale(ce, alpha).unwrap();
        let q = tensor(q, &[b, k]);
        let kl = tape.kl_to_target(lp, &q).unwrap();
        let s2 = tape.scale(kl, w).unwrap();
        let loss = tape.add(s1, s2).unwrap();

        let lsm = tensor(logits.clone(), &[b, k]).log_softmax_rows().unwrap();
        let lsm = lsm.data();
        let mut nll = 0.0f32;
        for (bi, &t) in targets.iter().enumerate() {
            nll -= lsm[bi * k + t];
        }
        let nll = nll / b as f32;
        let mut kl_v = 0.0f32;
        for (&qv, &lpv) in q.data().iter().zip(lsm.iter()) {
            if qv > 0.0 {
                kl_v += qv * (qv.ln() - lpv);
            }
        }
        let kl_v = kl_v / b as f32;
        assert_bits("nll", tape.value(ce).unwrap().data(), &[nll]);
        assert_bits("kl", tape.value(kl).unwrap().data(), &[kl_v]);
        assert_bits("loss", tape.value(loss).unwrap().data(), &[nll * alpha + kl_v * w]);

        let grads = tape.backward(loss).unwrap();
        // KL first (the later node), then the NLL gradient added onto it.
        let g_kl = 1.0f32 * w / b as f32;
        let mut g_lp: Vec<f32> = q.data().iter().map(|&qv| qv * -g_kl).collect();
        let g_ce = 1.0f32 * alpha / b as f32;
        let mut gl = vec![0.0f32; b * k];
        for (bi, &t) in targets.iter().enumerate() {
            gl[bi * k + t] = -g_ce;
        }
        for (a, &g) in g_lp.iter_mut().zip(&gl) {
            *a += g * 1.0;
        }
        let mut gx = vec![0.0f32; b * k];
        for bi in 0..b {
            let row_sum: f32 = g_lp[bi * k..(bi + 1) * k].iter().sum();
            for ci in 0..k {
                let p = lsm[bi * k + ci].exp();
                gx[bi * k + ci] = g_lp[bi * k + ci] - p * row_sum;
            }
        }
        assert_bits("logits grad", grads.get(xv).unwrap().data(), &gx);
    });
}

#[test]
fn mse_loss_keeps_its_bits() {
    on_every_backend(|| {
        for dims in [vec![32, 12], vec![7, 1], vec![3, 7, 5]] {
            let n: usize = dims.iter().product();
            let x = with_specials(data(n, 80, 2.0), SPECIALS);
            let target = data(n, 81, 2.0);
            let mut tape = Tape::new();
            let xv = tape.leaf(tensor(x.clone(), &dims), true);
            let target = tensor(target, &dims);
            let loss = tape.mse_to_target(xv, &target).unwrap();
            let (want, dy) = mse_ref(&x, target.data());
            assert_bits("mse", tape.value(loss).unwrap().data(), &[want]);
            let grads = tape.backward(loss).unwrap();
            assert_bits("mse dx", grads.get(xv).unwrap().data(), &dy);
        }
    });
}

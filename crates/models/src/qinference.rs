//! True int8 compiled inference for InceptionTime models.
//!
//! [`QuantizedPlan`] is the deployment-side sibling of
//! [`InferencePlan`](crate::inference::InferencePlan). Where the f32 plan
//! hoists fake-quantized f32 weights, this plan stores every conv / FC
//! weight as real `i8` codes with per-output-channel scales
//! ([`QuantizedMatrix`]) and executes the convolutions and the FC head in
//! pure integer arithmetic on one kernel, [`qconv1d_same_into`] (`i8×i8→i32`
//! on the integer register tile `lightts_tensor::simd::qgemm_tile`; the FC
//! head is a 1×1 conv over `fc_in` channels of length 1), dequantizing once
//! per layer.
//!
//! Per forward pass and per sample, activations are re-quantized
//! dynamically: an [`ActQuant`] affine is fitted to each sample's activation
//! range at every block input (and at the pooled features before the FC
//! head), so no calibration dataset is needed and the f32 elementwise tail
//! of each layer (folded batch-norm, ReLU, global average pooling, softmax)
//! is the f32 plan's own code, shared through `models::plan`.
//!
//! # Numerics & determinism
//!
//! The i8 path is *approximate* with respect to the f32 plan — quantizing
//! weights to 8 bits and activations per sample perturbs logits — and the
//! contract is the **parity gate** in `tests/quantized_parity.rs`: argmax
//! agreement with the f32 plan on ≥ 99% of golden-fixture samples inside a
//! pinned logit tolerance (`docs/NUMERICS.md`, "Quantized inference").
//!
//! In exchange the path sits in the strongest determinism class: integer
//! accumulation is exact and every f32 step is element-wise scalar code, so
//! quantized inference is **bitwise identical across SIMD backends, thread
//! counts, and batch splits** — per-sample quantization means a sample's
//! codes never depend on its batch neighbours.
//!
//! Scratch discipline matches the f32 plan: f32 buffers come from the
//! thread-local [`pool`](lightts_tensor::pool) and are recycled on drop;
//! the i8/i32 buffers (which the pool does not serve) are plan-owned and
//! grow-only. Steady-state forwards allocate nothing. Sharing matches the
//! f32 plan too: the quantized weights sit behind an `Arc`, and a clone
//! shares them and starts with empty scratch, so replicas hold one copy of
//! the codes.

use crate::plan::{bn_relu, check_input, ensure, global_avg_pool, plan_api, Scratch};
use crate::Result;
use lightts_obs::Histogram;
use lightts_tensor::qint::{qconv1d_same_into, ActQuant, QuantizedMatrix};
use std::sync::Arc;
use std::time::Instant;

/// One compiled int8 convolution layer; the FC head is one too, a 1×1
/// conv over `fc_in` channels of length 1.
#[derive(Debug)]
pub(crate) struct QPlanConv {
    /// Quantized filter bank, flattened `[filters, cin·kernel]`.
    pub(crate) weight: QuantizedMatrix,
    /// Filter length.
    pub(crate) kernel: usize,
    /// Bias in f32, one entry per output channel (added after dequant).
    pub(crate) bias: Vec<f32>,
}

impl QPlanConv {
    /// Runs the conv on one sample's codes `qx` (`[cin, l]`, quantized by
    /// `aq`) and writes the dequantized output plus bias to `dst`
    /// (`[filters, l]`). Fixed scalar rounding sequence: combined scale,
    /// subtract the zero-point correction, multiply, add bias.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        dst: &mut [f32],
        qx: &[i8],
        aq: ActQuant,
        cin: usize,
        l: usize,
        pairs: &mut Vec<i32>,
        acc: &mut Vec<i32>,
    ) -> Result<()> {
        let w = &self.weight;
        if acc.len() < w.rows() * l {
            acc.resize(w.rows() * l, 0);
        }
        let acc = &mut acc[..w.rows() * l];
        qconv1d_same_into(acc, pairs, qx, cin, l, w, self.kernel, aq.zero_point)?;
        let zp = i32::from(aq.zero_point);
        for (ci, (o, a)) in dst.chunks_exact_mut(l).zip(acc.chunks_exact(l)).enumerate() {
            let s = aq.scale * w.scales()[ci];
            let corr = zp * w.row_sums()[ci];
            for (o, &a) in o.iter_mut().zip(a) {
                *o = (a - corr) as f32 * s + self.bias[ci];
            }
        }
        Ok(())
    }
}

/// Fits a per-sample activation quantizer to `x` and writes its codes to
/// the front of `qx` (grown as needed), which it returns.
fn quantize<'q>(x: &[f32], qx: &'q mut Vec<i8>) -> (ActQuant, &'q [i8]) {
    if qx.len() < x.len() {
        qx.resize(x.len(), 0);
    }
    let aq = ActQuant::fit(x);
    aq.quantize_into(x, &mut qx[..x.len()]);
    (aq, &qx[..x.len()])
}

/// One compiled int8 Inception block: parallel quantized convolutions plus
/// the folded batch-norm affine (f32, identical to the f32 plan's).
#[derive(Debug)]
pub(crate) struct QPlanBlock {
    pub(crate) convs: Vec<QPlanConv>,
    pub(crate) bn_scale: Vec<f32>,
    pub(crate) bn_shift: Vec<f32>,
}

/// Reusable scratch: the pool-backed f32 buffers shared with the f32 plan,
/// plus plan-owned grow-only integer buffers (the buffer pool only serves
/// f32 slabs). Either way, nothing is allocated in steady state.
#[derive(Debug, Default)]
struct QScratch {
    /// Block activations and pooled features (f32, pool-backed).
    f32s: Scratch,
    /// One sample's quantized activation codes (grow-only).
    qx: Vec<i8>,
    /// One conv's i16 operand pairs, filters and padded input (grow-only).
    pairs: Vec<i32>,
    /// Integer accumulators for one sample's conv / FC output (grow-only).
    acc: Vec<i32>,
}

/// The compiled weights of an int8 plan: built once by
/// [`InceptionTime::compile_quantized`](crate::inception::InceptionTime::compile_quantized),
/// never written afterwards, and shared through an `Arc` by every clone of
/// the plan.
#[derive(Debug)]
pub(crate) struct QPlanWeights {
    pub(crate) blocks: Vec<QPlanBlock>,
    /// The FC head: `[num_classes, fc_in]` (transposed at compile), run as
    /// a 1×1 conv with one filter per class.
    pub(crate) fc: QPlanConv,
    pub(crate) in_dims: usize,
    pub(crate) in_len: usize,
    pub(crate) num_classes: usize,
}

/// A compiled, tape-free, allocation-free **int8** inference pass over an
/// [`InceptionTime`](crate::inception::InceptionTime) model.
///
/// Build one with
/// [`InceptionTime::compile_quantized`](crate::inception::InceptionTime::compile_quantized)
/// (which requires every quantized layer to have been configured with
/// bit-width ≤ 8, and fails with
/// [`ModelError::UnsupportedPlan`](crate::ModelError::UnsupportedPlan) otherwise),
/// then call [`predict_proba_into`](Self::predict_proba_into) per request,
/// exactly like the f32 plan; [`Clone`] shares the weights and starts with
/// empty scratch.
#[derive(Debug)]
pub struct QuantizedPlan {
    weights: Arc<QPlanWeights>,
    scratch: QScratch,
    /// Per-forward wall-clock histogram (`inference.forward_i8_ns`),
    /// resolved once at compile time.
    forward_ns: Arc<Histogram>,
}

plan_api!(QuantizedPlan, QPlanWeights, "inference.forward_i8_ns");

impl QuantizedPlan {
    /// Heap bytes of quantized weight storage (codes + per-channel
    /// metadata), the number compared against the f32 plan's `4 ·
    /// parameter-count` in the README size table.
    pub fn weight_bytes(&self) -> usize {
        let w = &self.weights;
        let convs = w.blocks.iter().flat_map(|b| b.convs.iter()).chain([&w.fc]);
        let conv: usize = convs.map(|c| c.weight.size_bytes() + c.bias.len() * 4).sum();
        let bn: usize = w.blocks.iter().map(|b| (b.bn_scale.len() + b.bn_shift.len()) * 4).sum();
        conv + bn
    }

    /// Computes logits for a `[batch, in_dims, in_len]` slice of inputs into
    /// `out` (resized to `batch · num_classes`).
    ///
    /// Approximate with respect to the f32 plan (see the parity gate), but
    /// bitwise reproducible across backends and batch splits for
    /// identical sample bytes.
    pub fn logits_into(&mut self, inputs: &[f32], batch: usize, out: &mut Vec<f32>) -> Result<()> {
        let t0 = Instant::now();
        let _prof = lightts_obs::prof::scope("qplan.forward");
        let w = &*self.weights;
        let l = w.in_len;
        check_input(inputs, batch, w.in_dims, l)?;

        let QScratch { f32s: scratch, qx, pairs, acc } = &mut self.scratch;
        let mut cin = w.in_dims;
        ensure(&mut scratch.a, batch * cin * l);
        scratch.a[..batch * cin * l].copy_from_slice(inputs);

        for block in &w.blocks {
            let filters = block.convs[0].weight.rows();
            let c_total = block.convs.len() * filters;
            ensure(&mut scratch.b, batch * c_total * l);
            for bi in 0..batch {
                // Per-sample dynamic activation quantization: codes depend
                // only on this sample's bytes, never on batch neighbours.
                let (aq, q) = quantize(&scratch.a[bi * cin * l..(bi + 1) * cin * l], qx);
                // Each conv's output lands in its slice of the channel-
                // concatenated layout, as in the f32 plan.
                let dst = &mut scratch.b[bi * c_total * l..(bi + 1) * c_total * l];
                for (conv, dst) in block.convs.iter().zip(dst.chunks_exact_mut(filters * l)) {
                    conv.forward(dst, q, aq, cin, l, pairs, acc)?;
                }
            }
            bn_relu(&mut scratch.b[..batch * c_total * l], l, &block.bn_scale, &block.bn_shift);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
            cin = c_total;
        }

        ensure(&mut scratch.pooled, batch * cin);
        global_avg_pool(&mut scratch.pooled[..batch * cin], &scratch.a[..batch * cin * l], l);

        // Quantized FC head: per-sample quantization of the pooled features,
        // then the head's 1×1 conv.
        let nc = w.num_classes;
        out.resize(batch * nc, 0.0);
        let pooled = &scratch.pooled[..batch * cin];
        for (p, o) in pooled.chunks_exact(cin).zip(out.chunks_exact_mut(nc)) {
            let (aq, q) = quantize(p, qx);
            w.fc.forward(o, q, aq, cin, 1, pairs, acc)?;
        }
        self.forward_ns.record_duration(t0.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::fixtures::{build_model, test_inputs};
    use crate::ModelError;
    use lightts_tensor::tape::thread_tapes_created;
    use std::sync::Arc;

    #[test]
    fn quantized_plan_tracks_f32_argmax() {
        let model = build_model(8);
        let mut f32_plan = model.compile().unwrap();
        let mut i8_plan = model.compile_quantized().unwrap();
        let x = test_inputs(8, 2, 20);
        let reference = f32_plan.predict_proba(&x).unwrap();
        let got = i8_plan.predict_proba(&x).unwrap();
        assert_eq!(reference.dims(), got.dims());
        let nc = 5;
        let mut agree = 0;
        for bi in 0..8 {
            let argmax = |d: &[f32]| {
                d.iter()
                    .enumerate()
                    .fold((0, f32::MIN), |m, (i, &v)| if v > m.1 { (i, v) } else { m })
                    .0
            };
            if argmax(&reference.data()[bi * nc..(bi + 1) * nc])
                == argmax(&got.data()[bi * nc..(bi + 1) * nc])
            {
                agree += 1;
            }
        }
        assert!(agree >= 7, "i8 plan agreed on only {agree}/8 argmaxes");
    }

    #[test]
    fn quantized_plan_is_batch_invariant_bitwise() {
        let model = build_model(8);
        let mut plan = model.compile_quantized().unwrap();
        let x = test_inputs(6, 2, 20);
        let mut batched = Vec::new();
        plan.predict_proba_into(x.data(), 6, &mut batched).unwrap();
        let sample = 2 * 20;
        for bi in 0..6 {
            let mut single = Vec::new();
            plan.predict_proba_into(&x.data()[bi * sample..(bi + 1) * sample], 1, &mut single)
                .unwrap();
            for (a, b) in batched[bi * 5..(bi + 1) * 5].iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "sample {bi}");
            }
        }
    }

    #[test]
    fn quantized_plan_is_tape_free() {
        let model = build_model(8);
        let mut plan = model.compile_quantized().unwrap();
        let x = test_inputs(4, 2, 20);
        plan.predict_proba(&x).unwrap();
        let before = thread_tapes_created();
        for _ in 0..10 {
            plan.predict_proba(&x).unwrap();
        }
        assert_eq!(thread_tapes_created(), before, "quantized inference constructed a Tape");
    }

    #[test]
    fn quantized_clone_shares_the_weights_and_starts_with_empty_scratch() {
        let model = build_model(8);
        let mut plan = model.compile_quantized().unwrap();
        let mut out = Vec::new();
        plan.logits_into(test_inputs(3, 2, 20).data(), 3, &mut out).unwrap();
        let clone = plan.clone();
        assert!(Arc::ptr_eq(&plan.weights, &clone.weights), "the clone copied the weights");
        let s = &clone.scratch;
        let ints = s.qx.capacity() + s.pairs.capacity() + s.acc.capacity();
        assert_eq!(s.f32s.capacity() + ints, 0, "the clone copied the scratch");
    }

    #[test]
    fn quantized_source_and_clone_in_turns_answer_like_a_fresh_plan() {
        let model = build_model(8);
        let mut source = model.compile_quantized().unwrap();
        let mut clone = source.clone();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batch in [7usize, 1, 3] {
            let x = test_inputs(batch, 2, 20);
            let mut fresh = Vec::new();
            model.compile_quantized().unwrap().logits_into(x.data(), batch, &mut fresh).unwrap();
            for (who, plan) in [("source", &mut source), ("clone", &mut clone)] {
                let mut got = Vec::new();
                plan.logits_into(x.data(), batch, &mut got).unwrap();
                assert_eq!(bits(&got), bits(&fresh), "{who} at batch {batch}");
            }
        }
    }

    #[test]
    fn quantized_plan_is_pool_miss_free_after_warmup() {
        use lightts_tensor::pool::thread_pool_misses;
        let model = build_model(8);
        let mut plan = model.compile_quantized().unwrap();
        let x = test_inputs(3, 2, 20);
        let mut out = Vec::new();
        plan.logits_into(x.data(), 3, &mut out).unwrap();
        let before = thread_pool_misses();
        for _ in 0..10 {
            plan.logits_into(x.data(), 3, &mut out).unwrap();
        }
        assert_eq!(
            thread_pool_misses(),
            before,
            "steady-state quantized inference allocated fresh pool slabs"
        );
    }

    #[test]
    fn quantized_plan_shrinks_weight_storage() {
        let model = build_model(8);
        let plan = model.compile_quantized().unwrap();
        let w = &plan.weights;
        // The f32 plan stores 4 bytes per conv/FC weight code plus the same
        // f32 bias/BN vectors. The i8 plan's codes + per-channel metadata
        // must undercut that by at least 2× even on this tiny model
        // (larger models approach the full 4×).
        let convs = || w.blocks.iter().flat_map(|b| b.convs.iter()).chain([&w.fc]);
        let codes: usize = convs().map(|c| c.weight.data().len()).sum();
        let aux: usize =
            w.blocks.iter().map(|b| (b.bn_scale.len() + b.bn_shift.len()) * 4).sum::<usize>()
                + convs().map(|c| c.bias.len() * 4).sum::<usize>();
        let f32_total = 4 * codes + aux;
        let i8_total = plan.weight_bytes();
        assert!(i8_total * 2 < f32_total, "no storage win: {i8_total} vs {f32_total} bytes");
    }

    #[test]
    fn high_bit_models_cannot_compile_quantized() {
        for bits in [16u8, 32] {
            let model = build_model(bits);
            match model.compile_quantized() {
                Err(ModelError::UnsupportedPlan { .. }) => {}
                other => panic!("bits={bits}: expected UnsupportedPlan, got {other:?}"),
            }
        }
    }

    #[test]
    fn quantized_plan_rejects_bad_input_lengths() {
        let model = build_model(8);
        let mut plan = model.compile_quantized().unwrap();
        let mut out = Vec::new();
        assert!(plan.logits_into(&[0.0; 7], 1, &mut out).is_err());
        assert!(plan.logits_into(&[], 0, &mut out).is_err());
    }
}

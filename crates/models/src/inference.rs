//! Tape-free compiled inference for InceptionTime models.
//!
//! [`InferencePlan`] is the one f32 inference forward of the workspace. The
//! serving layer holds one per model, and
//! [`InceptionTime::logits`](crate::inception::InceptionTime::logits)
//! compiles one per call, so every evaluation — `predict_proba`, teacher
//! probabilities, the validation accuracies AED, teacher removal and the
//! search decide on, `Forecaster::predict` — runs the code that serves.
//! Everything that does not depend on the request is hoisted to compile
//! time, and every per-request allocation is a reusable scratch buffer.
//!
//! At compile time ([`InceptionTime::compile`](crate::inception::InceptionTime::compile)) the plan:
//!
//! * fake-quantizes every convolution / linear weight once;
//! * folds each batch-norm layer's γ/β and running statistics into
//!   per-channel `(scale, shift)` vectors;
//! * owns ping-pong activation buffers that grow to the largest batch seen
//!   and are reused for every subsequent request.
//!
//! The compiled weights are immutable and sit behind an `Arc`; only the
//! activation buffers belong to the plan handle. Cloning a plan therefore
//! copies no weights: the clone shares them and starts with empty scratch,
//! which is how the serving layer runs one compiled copy of a model on
//! many threads.
//!
//! Numerics are **bitwise identical** to the training network's forward,
//! [`forward_train`](crate::inception::InceptionTime::forward_train) in
//! `Mode::Eval`: each hoisted quantity is produced by the very same f32
//! expressions the tape evaluates (see `quantized_params` / `folded_affine`
//! in `lightts_nn`), and every kernel fills each output row with a
//! batch-size-independent accumulation order. This is what lets the serving
//! layer prove that a dynamically formed micro-batch returns exactly the
//! bytes a single-sample call would have returned — and the instrumented
//! [`tapes_created`](lightts_tensor::tape::tapes_created) counter proves the
//! plan never touches the autodiff tape.

use crate::plan::{bn_relu, check_input, ensure, global_avg_pool, plan_api, Scratch};
use crate::Result;
use lightts_obs::Histogram;
use lightts_tensor::conv::conv1d_forward_into;
use lightts_tensor::{linalg, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// One compiled convolution layer: pre-quantized weight and bias.
#[derive(Debug)]
pub(crate) struct PlanConv {
    /// Fake-quantized filter bank `[filters, cin, k]`.
    pub(crate) weight: Tensor,
    /// Fake-quantized bias, one entry per output channel.
    pub(crate) bias: Vec<f32>,
}

/// One compiled Inception block: parallel convolutions plus folded
/// batch-norm affine.
#[derive(Debug)]
pub(crate) struct PlanBlock {
    pub(crate) convs: Vec<PlanConv>,
    /// Folded per-channel batch-norm scale (γ·/√(σ²+ε)).
    pub(crate) bn_scale: Vec<f32>,
    /// Folded per-channel batch-norm shift (β − μ·scale).
    pub(crate) bn_shift: Vec<f32>,
}

/// The compiled weights of an f32 plan: built once by
/// [`InceptionTime::compile`](crate::inception::InceptionTime::compile),
/// never written afterwards, and shared through an `Arc` by every clone of
/// the plan.
#[derive(Debug)]
pub(crate) struct PlanWeights {
    pub(crate) blocks: Vec<PlanBlock>,
    /// Fake-quantized FC weight, row-major `[fc_in, num_classes]`.
    pub(crate) fc_weight: Vec<f32>,
    pub(crate) fc_bias: Vec<f32>,
    pub(crate) fc_in: usize,
    pub(crate) in_dims: usize,
    pub(crate) in_len: usize,
    pub(crate) num_classes: usize,
}

/// A compiled, tape-free, allocation-free inference pass over an
/// [`InceptionTime`](crate::inception::InceptionTime) model.
///
/// Build one with [`InceptionTime::compile`](crate::inception::InceptionTime::compile), then call
/// [`predict_proba_into`](Self::predict_proba_into) (or
/// [`logits_into`](Self::logits_into)) per request. It is `&mut self`
/// because it reuses its scratch buffers; [`Clone`] shares the weights and
/// starts with empty scratch.
#[derive(Debug)]
pub struct InferencePlan {
    weights: Arc<PlanWeights>,
    scratch: Scratch,
    /// Per-forward wall-clock histogram (`inference.forward_ns` in the
    /// global registry), resolved once at compile time so the hot path
    /// never touches the registry mutex.
    forward_ns: Arc<Histogram>,
}

plan_api!(InferencePlan, PlanWeights, "inference.forward_ns");

impl InferencePlan {
    /// Computes logits for a `[batch, in_dims, in_len]` slice of inputs into
    /// `out` (resized to `batch · num_classes`).
    ///
    /// Bitwise identical to
    /// [`forward_train`](crate::inception::InceptionTime::forward_train) in
    /// `Mode::Eval` on the same rows, for any batch size. Each call records
    /// its time in `inference.forward_ns`, evaluations included.
    pub fn logits_into(&mut self, inputs: &[f32], batch: usize, out: &mut Vec<f32>) -> Result<()> {
        let t0 = Instant::now();
        let _prof = lightts_obs::prof::scope("plan.forward");
        let w = &*self.weights;
        let l = w.in_len;
        check_input(inputs, batch, w.in_dims, l)?;

        // Grow every scratch buffer before the first convolution: growth
        // later in the call could take the pool slab a conv kernel has just
        // recycled, and the next call would miss.
        let scratch = &mut self.scratch;
        let filters_of = |block: &PlanBlock| block.convs[0].weight.dims()[0];
        let widest = w.blocks.iter().map(|b| b.convs.len() * filters_of(b)).max().unwrap_or(0);
        let widest = widest.max(w.in_dims);
        let filters_max = w.blocks.iter().map(filters_of).max().unwrap_or(0);
        ensure(&mut scratch.a, batch * widest * l);
        ensure(&mut scratch.b, batch * widest * l);
        ensure(&mut scratch.conv, batch * filters_max * l);
        ensure(&mut scratch.pooled, batch * w.fc_in);
        let mut cin = w.in_dims;
        scratch.a[..batch * cin * l].copy_from_slice(inputs);

        for block in &w.blocks {
            let filters = filters_of(block);
            let c_total = block.convs.len() * filters;
            for (j, conv) in block.convs.iter().enumerate() {
                conv1d_forward_into(
                    &mut scratch.conv[..batch * filters * l],
                    &scratch.a[..batch * cin * l],
                    batch,
                    &conv.weight,
                )?;
                // Scatter this layer's [batch, filters, l] rows into the
                // channel-concatenated layout, adding the bias exactly as
                // the tape's add_bias does (conv sum first, then + bias).
                for bi in 0..batch {
                    for ci in 0..filters {
                        let src = (bi * filters + ci) * l;
                        let dst = (bi * c_total + j * filters + ci) * l;
                        let bias_v = conv.bias[ci];
                        for (o, &v) in
                            scratch.b[dst..dst + l].iter_mut().zip(&scratch.conv[src..src + l])
                        {
                            *o = v + bias_v;
                        }
                    }
                }
            }
            bn_relu(&mut scratch.b[..batch * c_total * l], l, &block.bn_scale, &block.bn_shift);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
            cin = c_total;
        }

        global_avg_pool(&mut scratch.pooled[..batch * cin], &scratch.a[..batch * cin * l], l);

        // FC head: zeroed output region + the shared matmul kernel + bias,
        // the exact sequence the tape's matmul and add_bias perform.
        let nc = w.num_classes;
        out.resize(batch * nc, 0.0);
        out[..batch * nc].fill(0.0);
        linalg::matmul_into(
            &mut out[..batch * nc],
            &scratch.pooled[..batch * w.fc_in],
            &w.fc_weight,
            batch,
            w.fc_in,
            nc,
        );
        for bi in 0..batch {
            for ci in 0..nc {
                out[bi * nc + ci] += w.fc_bias[ci];
            }
        }
        self.forward_ns.record_duration(t0.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::plan::fixtures::{build_model, test_inputs};
    use lightts_nn::{Bindings, Mode};
    use lightts_tensor::tape::{thread_tapes_created, Tape};
    use lightts_tensor::Tensor;
    use std::sync::Arc;

    fn assert_bitwise(reference: &Tensor, got: &Tensor, what: &str) {
        assert_eq!(reference.dims(), got.dims(), "{what}");
        for (i, (a, b)) in reference.data().iter().zip(got.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}: {a} vs {b}");
        }
    }

    /// The reference is the training network itself: `forward_train` in
    /// `Mode::Eval` on a tape, and the tensor softmax over its logits.
    #[test]
    fn compiled_plan_matches_eval_path_bitwise() {
        for bits in [4u8, 8, 32] {
            let mut model = build_model(bits);
            let mut plan = model.compile().unwrap();
            for batch in [1usize, 2, 3, 7] {
                let x = test_inputs(batch, 2, 20);
                let mut tape = Tape::new();
                let out =
                    model.forward_train(&mut tape, &mut Bindings::new(), &x, Mode::Eval).unwrap();
                let reference = tape.value(out).unwrap();
                let what = format!("bits={bits} batch={batch}");
                assert_bitwise(reference, &plan.logits(&x).unwrap(), &what);
                let probs = reference.softmax_rows().unwrap();
                assert_bitwise(&probs, &plan.predict_proba(&x).unwrap(), &what);
            }
        }
    }

    #[test]
    fn plan_is_tape_free() {
        let model = build_model(8);
        let mut plan = model.compile().unwrap();
        let x = test_inputs(4, 2, 20);
        // Warm up scratch, then measure.
        plan.predict_proba(&x).unwrap();
        let before = thread_tapes_created();
        for _ in 0..10 {
            plan.predict_proba(&x).unwrap();
        }
        assert_eq!(thread_tapes_created(), before, "compiled inference constructed a Tape");
    }

    #[test]
    fn clone_shares_the_weights_and_starts_with_empty_scratch() {
        let model = build_model(8);
        let mut plan = model.compile().unwrap();
        let mut out = Vec::new();
        plan.logits_into(test_inputs(3, 2, 20).data(), 3, &mut out).unwrap();
        let clone = plan.clone();
        assert!(Arc::ptr_eq(&plan.weights, &clone.weights), "the clone copied the weights");
        assert_eq!(clone.scratch.capacity(), 0, "the clone copied the scratch");
    }

    #[test]
    fn source_and_clone_in_turns_answer_like_a_fresh_plan() {
        let model = build_model(8);
        let mut source = model.compile().unwrap();
        let mut clone = source.clone();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for batch in [7usize, 1, 3] {
            let x = test_inputs(batch, 2, 20);
            let mut fresh = Vec::new();
            model.compile().unwrap().logits_into(x.data(), batch, &mut fresh).unwrap();
            for (who, plan) in [("source", &mut source), ("clone", &mut clone)] {
                let mut got = Vec::new();
                plan.logits_into(x.data(), batch, &mut got).unwrap();
                assert_eq!(bits(&got), bits(&fresh), "{who} at batch {batch}");
            }
        }
    }

    #[test]
    fn plan_is_pool_miss_free_after_warmup() {
        use lightts_tensor::pool::thread_pool_misses;
        let model = build_model(8);
        let mut plan = model.compile().unwrap();
        let x = test_inputs(3, 2, 20);
        let mut out = Vec::new();
        // Warm up scratch (and the thread-local pool), then measure. The
        // thread-local counter keeps concurrent tests from polluting this.
        plan.logits_into(x.data(), 3, &mut out).unwrap();
        let before = thread_pool_misses();
        for _ in 0..10 {
            plan.logits_into(x.data(), 3, &mut out).unwrap();
        }
        assert_eq!(
            thread_pool_misses(),
            before,
            "steady-state compiled inference allocated fresh pool slabs"
        );
    }

    #[test]
    fn plan_rejects_bad_input_lengths() {
        let model = build_model(8);
        let mut plan = model.compile().unwrap();
        let mut out = Vec::new();
        assert!(plan.logits_into(&[0.0; 7], 1, &mut out).is_err());
        assert!(plan.logits_into(&[], 0, &mut out).is_err());
    }
}

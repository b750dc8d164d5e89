//! Helpers the f32 [`InferencePlan`](crate::inference::InferencePlan) and
//! the int8 [`QuantizedPlan`](crate::qinference::QuantizedPlan) share: the
//! pool-backed scratch, the input check, the f32 elementwise tail of each
//! layer (folded batch-norm + ReLU, global average pooling, softmax) and
//! the public accessors, slice and tensor entry points alike. Both plans
//! call the same code, which is what keeps that tail bitwise identical
//! between them. `InceptionTime::logits` returns the f32 plan's tensor
//! [`logits`](crate::inference::InferencePlan::logits).
//!
//! Both plans have the same layout: an `Arc` on immutable compiled weights,
//! which every clone shares, plus the handle's own [`Scratch`], which a
//! clone starts empty.

use crate::{ModelError, Result};
use lightts_tensor::{pool, simd};

/// Pool-backed f32 activation scratch. Buffers grow to the high-water mark
/// of the batches seen and are never shrunk, so steady-state serving
/// performs zero heap allocation per request. Growth is served by the
/// thread-local [`pool`] (so a plan that outgrows one batch shape reuses
/// slabs recycled elsewhere), and dropping the plan handle returns every
/// buffer to the pool.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Current block input `[batch, c, l]`.
    pub(crate) a: Vec<f32>,
    /// Next block output (channel-concatenated) `[batch, c', l]`.
    pub(crate) b: Vec<f32>,
    /// Single-convolution output `[batch, filters, l]` (f32 plan only).
    pub(crate) conv: Vec<f32>,
    /// Pooled features `[batch, c_last]`.
    pub(crate) pooled: Vec<f32>,
}

#[cfg(test)]
impl Scratch {
    /// Total capacity of the buffers: 0 in a fresh plan handle.
    pub(crate) fn capacity(&self) -> usize {
        [&self.a, &self.b, &self.conv, &self.pooled].iter().map(|v| v.capacity()).sum()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for v in [&mut self.a, &mut self.b, &mut self.conv, &mut self.pooled] {
            pool::recycle(std::mem::take(v));
        }
    }
}

/// Grows `v` to hold at least `n` elements (pool-backed, never shrinks the
/// visible length below `n`). Contents beyond the previous length are zero;
/// every caller fully overwrites the region it reads, so reused stale data
/// can never leak into results.
pub(crate) fn ensure(v: &mut Vec<f32>, n: usize) {
    if v.capacity() < n {
        let fresh = pool::take_empty(n);
        pool::recycle(std::mem::replace(v, fresh));
    }
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Refuses an empty batch and inputs that are not `batch × in_dims × l`.
pub(crate) fn check_input(inputs: &[f32], batch: usize, in_dims: usize, l: usize) -> Result<()> {
    if batch == 0 {
        return Err(ModelError::BadConfig { what: "inference: empty batch".into() });
    }
    if inputs.len() != batch * in_dims * l {
        return Err(ModelError::BadConfig {
            what: format!(
                "inference: input length {} != batch {batch} × {in_dims} × {l}",
                inputs.len()
            ),
        });
    }
    Ok(())
}

/// Folded batch-norm affine followed by ReLU, in place over `[batch, c, l]`:
/// the same two element-wise steps as `BatchNorm1d::forward` in `Mode::Eval`
/// and the tape's `relu`.
pub(crate) fn bn_relu(x: &mut [f32], l: usize, scale: &[f32], shift: &[f32]) {
    for sample in x.chunks_exact_mut(scale.len() * l) {
        for ((row, &scale), &shift) in sample.chunks_exact_mut(l).zip(scale).zip(shift) {
            for v in row {
                let t = *v * scale + shift;
                *v = t.max(0.0);
            }
        }
    }
}

/// Global average pooling `[batch, c, l] → [batch, c]` into `pooled`, with
/// the summation order of the tape's `gap`.
pub(crate) fn global_avg_pool(pooled: &mut [f32], x: &[f32], l: usize) {
    for (p, row) in pooled.iter_mut().zip(x.chunks_exact(l)) {
        *p = row.iter().sum::<f32>() / l as f32;
    }
}

/// Row-wise softmax of `[batch, nc]` logits in place, via the one canonical
/// softmax of the workspace — `simd::log_softmax_row` followed by
/// `simd::vec_exp` — so batched serving, per-sample serving, and
/// `Tensor::softmax_rows` agree element for element under any fixed SIMD
/// backend (see `docs/NUMERICS.md`).
pub(crate) fn softmax_rows(out: &mut [f32], nc: usize) {
    for row in out.chunks_exact_mut(nc) {
        simd::log_softmax_row(row);
        simd::vec_exp(row);
    }
}

/// The handle half of a compiled plan, written once for both plans: a
/// [`Clone`] that shares the weights and starts with empty scratch, the
/// constructor, the shape accessors, the probability entry points and the
/// tensor entry points. The plan has the fields `weights: Arc<$weights>`,
/// `scratch` (of a `Default` type) and `forward_ns: Arc<Histogram>`
/// (resolved from `$histogram`), and a `logits_into` method; `$weights` has
/// the fields `in_dims`, `in_len` and `num_classes`.
macro_rules! plan_api {
    ($plan:ident, $weights:ty, $histogram:literal) => {
        impl Clone for $plan {
            /// A new handle on the same weights, with empty scratch.
            fn clone(&self) -> Self {
                $plan {
                    weights: std::sync::Arc::clone(&self.weights),
                    scratch: Default::default(),
                    forward_ns: std::sync::Arc::clone(&self.forward_ns),
                }
            }
        }

        impl $plan {
            pub(crate) fn new(weights: $weights) -> Self {
                $plan {
                    weights: std::sync::Arc::new(weights),
                    scratch: Default::default(),
                    forward_ns: lightts_obs::global().histogram($histogram),
                }
            }

            /// Input dimensionality `M` each sample must have.
            pub fn in_dims(&self) -> usize {
                self.weights.in_dims
            }

            /// Series length each sample must have.
            pub fn in_len(&self) -> usize {
                self.weights.in_len
            }

            /// Number of scalars one sample occupies (`in_dims · in_len`).
            pub fn sample_len(&self) -> usize {
                self.weights.in_dims * self.weights.in_len
            }

            /// Number of output classes.
            pub fn num_classes(&self) -> usize {
                self.weights.num_classes
            }

            /// Computes class probabilities (softmax over
            /// [`logits_into`](Self::logits_into)) into `out`, through the one
            /// canonical softmax of the workspace (`simd::log_softmax_row` +
            /// `simd::vec_exp`).
            pub fn predict_proba_into(
                &mut self,
                inputs: &[f32],
                batch: usize,
                out: &mut Vec<f32>,
            ) -> $crate::Result<()> {
                self.logits_into(inputs, batch, out)?;
                $crate::plan::softmax_rows(out, self.weights.num_classes);
                Ok(())
            }

            /// [`logits_into`](Self::logits_into) on a `[batch, in_dims,
            /// in_len]` tensor, returning `[batch, classes]` logits; what
            /// `InceptionTime::logits` runs for every evaluation. Any other
            /// input shape is an error. The output buffer comes from the tensor
            /// pool, which takes back every buffer of a dropped tensor: a plain
            /// `Vec` here would park one more slab per evaluation.
            pub fn logits(
                &mut self,
                inputs: &lightts_tensor::Tensor,
            ) -> $crate::Result<lightts_tensor::Tensor> {
                let (dims, w) = (inputs.dims(), &*self.weights);
                if dims.len() != 3 || dims[1..] != [w.in_dims, w.in_len] {
                    return Err($crate::ModelError::BadConfig {
                        what: format!(
                            "inference: input {dims:?} is not [batch, {}, {}]",
                            w.in_dims, w.in_len
                        ),
                    });
                }
                let (batch, nc) = (dims[0], w.num_classes);
                let mut out = lightts_tensor::pool::take_empty(batch * nc);
                self.logits_into(inputs.data(), batch, &mut out)?;
                Ok(lightts_tensor::Tensor::from_vec(out, &[batch, nc])?)
            }

            /// Class probabilities as a `[batch, classes]` tensor: the softmax
            /// of [`logits`](Self::logits), with the arithmetic of
            /// [`predict_proba_into`](Self::predict_proba_into).
            pub fn predict_proba(
                &mut self,
                inputs: &lightts_tensor::Tensor,
            ) -> $crate::Result<lightts_tensor::Tensor> {
                let mut probs = self.logits(inputs)?;
                $crate::plan::softmax_rows(probs.data_mut(), self.weights.num_classes);
                Ok(probs)
            }
        }
    };
}

pub(crate) use plan_api;

/// The small model and inputs both plans' unit tests compile and run.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::inception::{BlockSpec, InceptionConfig, InceptionTime};
    use lightts_tensor::rng::seeded;
    use lightts_tensor::Tensor;

    pub(crate) fn build_model(bits: u8) -> InceptionTime {
        let cfg = InceptionConfig {
            blocks: vec![
                BlockSpec { layers: 2, filter_len: 8, bits },
                BlockSpec { layers: 3, filter_len: 4, bits },
            ],
            filters: 4,
            in_dims: 2,
            in_len: 20,
            num_classes: 5,
        };
        let mut rng = seeded(11);
        let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
        // Non-trivial running stats without training (no tapes involved).
        let stats: Vec<(Vec<f32>, Vec<f32>)> = model
            .bn_channel_counts()
            .iter()
            .map(|&c| {
                let mean: Vec<f32> = (0..c).map(|i| 0.05 * i as f32 - 0.1).collect();
                let var: Vec<f32> = (0..c).map(|i| 0.5 + 0.03 * i as f32).collect();
                (mean, var)
            })
            .collect();
        for (i, (mean, var)) in stats.iter().enumerate() {
            model.set_bn_running_stats(i, mean, var).unwrap();
        }
        model
    }

    pub(crate) fn test_inputs(batch: usize, dims: usize, len: usize) -> Tensor {
        let data: Vec<f32> = (0..batch * dims * len)
            .map(|i| ((i as u64 * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0)
            .collect();
        Tensor::from_vec(data, &[batch, dims, len]).unwrap()
    }
}

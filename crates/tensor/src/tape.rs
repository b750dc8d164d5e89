//! Tape-based reverse-mode automatic differentiation.
//!
//! Training a quantized student with the AED loss (paper Eq. 2, Algorithm 1)
//! needs gradients of a scalar loss with respect to every convolutional
//! filter, bias, and batch-norm parameter. This module provides a
//! define-by-run tape: each operation appends a [`Op`] node recording its
//! parents; [`Tape::backward`] walks the tape in reverse, applying a
//! hand-written adjoint rule per operation.
//!
//! Every rule is validated against central finite differences in this
//! module's tests and in crate-level proptests, which is what makes the
//! from-scratch engine a trustworthy substitute for PyTorch here.
//!
//! # Memory behaviour
//!
//! Every buffer a tape op materializes — forward values, saved auxiliaries,
//! and the gradients produced by [`Tape::backward`] — lives in a [`Tensor`]
//! whose storage is drawn from the thread-local [`crate::pool`] and recycled
//! when it is dropped. Each op writes its outputs in one pass into slabs
//! taken empty, with no zero-fill. [`Tape::backward`] keeps a gradient only
//! while a rule can still read it: a non-leaf's gradient is freed as soon
//! as its own rule has run, and a rule that passes it through unchanged
//! moves it to the parent, so only the leaves' gradients outlive the call
//! and the peak holds just the gradients of the frontier being walked.
//! Together with [`Tape::reset`] (which clears the node list while keeping
//! its allocation), a steady-state training loop that reuses one tape
//! performs zero transient heap allocations per step once the pool is warm;
//! the pool's hit/miss counters sit next to [`tapes_created`] so tests can
//! assert exactly that.

use crate::conv::{conv1d_backward_input, conv1d_backward_weight, conv1d_forward};
use crate::quant::fake_quantize;
use crate::{pool, Result, Tensor, TensorError};

/// Handle to a node on a [`Tape`].
///
/// `Var` is a plain index; it is only meaningful for the tape that created
/// it. Using a `Var` from another tape yields [`TensorError::InvalidVar`] or
/// wrong results caught by shape checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw node index (exposed for diagnostics only).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Auxiliary values saved by the batch-norm forward pass for its backward.
#[derive(Debug, Clone)]
pub struct BnAux {
    /// Normalized activations `x̂ = (x − μ_c) · inv_std_c`.
    pub x_hat: Tensor,
    /// Per-channel `1 / sqrt(var + eps)`.
    pub inv_std: Vec<f32>,
}

/// The operation recorded at a tape node.
///
/// Shapes follow the conventions of the crate: activations are
/// `[batch, channels, length]`, class scores are `[batch, classes]`, and
/// scalars are rank-1 tensors of length 1.
#[derive(Debug, Clone)]
pub enum Op {
    /// Input node (parameter or data).
    Leaf,
    /// Element-wise `a + b`.
    Add(usize, usize),
    /// `a · s` for a constant `s`.
    Scale(usize, f32),
    /// `max(a, 0)` element-wise.
    Relu(usize),
    /// Rank-2 matrix product `a[m,k] @ b[k,n]`.
    MatMul(usize, usize),
    /// "Same" 1-D convolution of `x` with filters `w`.
    Conv1d {
        /// Input activations `[b, cin, l]`.
        x: usize,
        /// Filters `[cout, cin, k]`.
        w: usize,
    },
    /// Broadcast bias add: `x[b,c,l] + bias[c]` or `x[b,c] + bias[c]`.
    AddBias {
        /// Activations.
        x: usize,
        /// Per-channel bias.
        bias: usize,
    },
    /// Channel-wise concatenation of `[b, c_i, l]` tensors.
    ConcatChannels(Vec<usize>),
    /// Global average pooling over time: `[b,c,l] → [b,c]`.
    Gap(usize),
    /// Row-wise log-softmax of `[b, k]`.
    LogSoftmax(usize),
    /// Mean of all elements → scalar.
    Mean(usize),
    /// Sum of all elements → scalar.
    Sum(usize),
    /// Mean negative log-likelihood of `targets` under row log-probabilities.
    NllMean {
        /// Log-probabilities `[b, k]` (from [`Op::LogSoftmax`]).
        logp: usize,
        /// Ground-truth class per row.
        targets: Vec<usize>,
    },
    /// Mean over the batch of `KL(q ‖ p)` given the student's
    /// log-probabilities and a constant teacher distribution `q`.
    KlToTarget {
        /// Student log-probabilities `[b, k]`.
        logp: usize,
        /// Teacher class distribution `[b, k]` (constant, not a tape node).
        q: Tensor,
    },
    /// Mean squared error to a constant target.
    MseToTarget {
        /// Predictions.
        x: usize,
        /// Constant target of the same shape.
        target: Tensor,
    },
    /// Uniform fake quantization with straight-through gradient.
    FakeQuant {
        /// The full-precision tensor.
        x: usize,
        /// Bit-width (32 ⇒ identity).
        bits: u8,
    },
    /// Batch normalization over `[b, c, l]`, training mode.
    BatchNorm {
        /// Activations.
        x: usize,
        /// Per-channel scale γ.
        gamma: usize,
        /// Per-channel shift β.
        beta: usize,
        /// Saved forward statistics.
        aux: BnAux,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// The gradient of the loss with respect to the leaf `var`, if it was
    /// computed.
    ///
    /// `None` for leaves that do not require gradients or are not ancestors
    /// of the loss, and for every non-leaf node, the root included:
    /// [`Tape::backward`] frees a non-leaf's gradient once its rule has run.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `var`, leaving `None` behind.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.0).and_then(|g| g.take())
    }
}

/// Process-wide count of [`Tape`] constructions, for instrumentation.
///
/// The serving runtime (`lightts-serve`) promises a tape-free hot path;
/// its tests sample this counter around a request burst to prove that no
/// code path sneaks an autodiff allocation back in. A relaxed atomic
/// increment per tape is noise next to the `Vec` the tape itself allocates.
static TAPES_CREATED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    /// Per-thread twin of [`TAPES_CREATED`].
    static LOCAL_TAPES_CREATED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total number of [`Tape`]s constructed by this process so far.
///
/// Monotonically increasing; meaningful only as a *delta* around a region
/// that is claimed to be tape-free (inference/serving paths).
pub fn tapes_created() -> u64 {
    TAPES_CREATED.load(std::sync::atomic::Ordering::Relaxed)
}

/// [`tapes_created`] of the *calling thread* alone: other threads (e.g.
/// other tests in the same binary) cannot move it.
pub fn thread_tapes_created() -> u64 {
    LOCAL_TAPES_CREATED.get()
}

/// A define-by-run reverse-mode autodiff tape.
///
/// A tape records one forward pass (one mini-batch) and its
/// [`Tape::backward`]. The training loop in `lightts-models`
/// (`InceptionTime::train_epochs`) keeps one tape for a whole call and
/// [`Tape::reset`]s it before each batch, so the node storage is reused.
#[derive(Debug)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        TAPES_CREATED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        LOCAL_TAPES_CREATED.set(LOCAL_TAPES_CREATED.get() + 1);
        Tape { nodes: Vec::new() }
    }

    /// Discards all recorded nodes while keeping the tape's own allocation.
    ///
    /// Dropping the nodes returns their tensor buffers to the thread-local
    /// [`crate::pool`]; the node list's capacity is retained, so a training
    /// loop that calls `reset` between mini-batches (instead of building a
    /// fresh [`Tape::new`] each step) re-records the next step without any
    /// heap traffic. Does not increment [`tapes_created`] — it is the same
    /// tape.
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records an input node. `requires_grad` marks trainable parameters.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Records a constant input (no gradient).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// The forward value at `var`.
    pub fn value(&self, var: Var) -> Result<&Tensor> {
        self.nodes
            .get(var.0)
            .map(|n| &n.value)
            .ok_or(TensorError::InvalidVar { id: var.0, len: self.nodes.len() })
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node { value, op, requires_grad });
        Var(self.nodes.len() - 1)
    }

    fn check(&self, v: Var) -> Result<()> {
        if v.0 >= self.nodes.len() {
            return Err(TensorError::InvalidVar { id: v.0, len: self.nodes.len() });
        }
        Ok(())
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    // ------------------------------------------------------------------
    // Forward operations
    // ------------------------------------------------------------------

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::Add(a.0, b.0), rg))
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Result<Var> {
        self.check(a)?;
        let v = self.nodes[a.0].value.scale(s);
        let rg = self.rg(a);
        Ok(self.push(v, Op::Scale(a.0, s), rg))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Result<Var> {
        self.check(a)?;
        let _prof = lightts_obs::prof::scope("relu.fwd");
        let v = self.nodes[a.0].value.relu();
        let rg = self.rg(a);
        Ok(self.push(v, Op::Relu(a.0), rg))
    }

    /// Rank-2 matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        self.check(a)?;
        self.check(b)?;
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(v, Op::MatMul(a.0, b.0), rg))
    }

    /// "Same" 1-D convolution.
    pub fn conv1d(&mut self, x: Var, w: Var) -> Result<Var> {
        self.check(x)?;
        self.check(w)?;
        let v = conv1d_forward(&self.nodes[x.0].value, &self.nodes[w.0].value)?;
        let rg = self.rg(x) || self.rg(w);
        Ok(self.push(v, Op::Conv1d { x: x.0, w: w.0 }, rg))
    }

    /// Broadcast bias add over the channel dimension.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Result<Var> {
        self.check(x)?;
        self.check(bias)?;
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[bias.0].value;
        if bv.rank() != 1 {
            return Err(TensorError::RankMismatch {
                found: bv.rank(),
                expected: 1,
                op: "add_bias",
            });
        }
        let c = bv.len();
        let _prof = lightts_obs::prof::scope("bias.fwd");
        let v = match xv.rank() {
            2 => {
                if xv.dims()[1] != c {
                    return Err(TensorError::ShapeMismatch {
                        left: xv.dims().to_vec(),
                        right: bv.dims().to_vec(),
                        op: "add_bias",
                    });
                }
                let mut out = pool::take_empty(xv.len());
                for row in xv.data().chunks_exact(c.max(1)) {
                    out.extend(row.iter().zip(bv.data()).map(|(&v, &bias_v)| v + bias_v));
                }
                Tensor::from_vec(out, xv.dims())?
            }
            3 => {
                if xv.dims()[1] != c {
                    return Err(TensorError::ShapeMismatch {
                        left: xv.dims().to_vec(),
                        right: bv.dims().to_vec(),
                        op: "add_bias",
                    });
                }
                let l = xv.dims()[2];
                let mut out = pool::take_empty(xv.len());
                for (r, row) in xv.data().chunks_exact(l.max(1)).enumerate() {
                    let bias_v = bv.data()[r % c];
                    out.extend(row.iter().map(|&v| v + bias_v));
                }
                Tensor::from_vec(out, xv.dims())?
            }
            r => {
                return Err(TensorError::RankMismatch { found: r, expected: 3, op: "add_bias" });
            }
        };
        let rg = self.rg(x) || self.rg(bias);
        Ok(self.push(v, Op::AddBias { x: x.0, bias: bias.0 }, rg))
    }

    /// Concatenates `[b, c_i, l]` activations along the channel dimension.
    pub fn concat_channels(&mut self, parts: &[Var]) -> Result<Var> {
        if parts.is_empty() {
            return Err(TensorError::Empty { op: "concat_channels" });
        }
        for &p in parts {
            self.check(p)?;
        }
        let first = &self.nodes[parts[0].0].value;
        if first.rank() != 3 {
            return Err(TensorError::RankMismatch {
                found: first.rank(),
                expected: 3,
                op: "concat_channels",
            });
        }
        let (b, l) = (first.dims()[0], first.dims()[2]);
        let mut c_total = 0usize;
        for &p in parts {
            let t = &self.nodes[p.0].value;
            if t.rank() != 3 || t.dims()[0] != b || t.dims()[2] != l {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: t.dims().to_vec(),
                    op: "concat_channels",
                });
            }
            c_total += t.dims()[1];
        }
        let _prof = lightts_obs::prof::scope("concat.fwd");
        let mut out = pool::take_empty(b * c_total * l);
        for bi in 0..b {
            for &p in parts {
                let t = &self.nodes[p.0].value;
                let ci = t.dims()[1];
                out.extend_from_slice(&t.data()[bi * ci * l..(bi + 1) * ci * l]);
            }
        }
        let v = Tensor::from_vec(out, &[b, c_total, l])?;
        let rg = parts.iter().any(|&p| self.rg(p));
        Ok(self.push(v, Op::ConcatChannels(parts.iter().map(|p| p.0).collect()), rg))
    }

    /// Global average pooling over the time dimension.
    pub fn gap(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let xv = &self.nodes[x.0].value;
        if xv.rank() != 3 {
            return Err(TensorError::RankMismatch { found: xv.rank(), expected: 3, op: "gap" });
        }
        let (b, c, l) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let _prof = lightts_obs::prof::scope("gap.fwd");
        let xd = xv.data();
        let mut out = pool::take_empty(b * c);
        out.extend((0..b * c).map(|r| xd[r * l..(r + 1) * l].iter().sum::<f32>() / l as f32));
        let v = Tensor::from_vec(out, &[b, c])?;
        let rg = self.rg(x);
        Ok(self.push(v, Op::Gap(x.0), rg))
    }

    /// Row-wise log-softmax.
    pub fn log_softmax(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let _prof = lightts_obs::prof::scope("log_softmax.fwd");
        let v = self.nodes[x.0].value.log_softmax_rows()?;
        let rg = self.rg(x);
        Ok(self.push(v, Op::LogSoftmax(x.0), rg))
    }

    /// Mean of all elements → scalar node.
    pub fn mean(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = Tensor::scalar(self.nodes[x.0].value.mean());
        let rg = self.rg(x);
        Ok(self.push(v, Op::Mean(x.0), rg))
    }

    /// Sum of all elements → scalar node.
    pub fn sum(&mut self, x: Var) -> Result<Var> {
        self.check(x)?;
        let v = Tensor::scalar(self.nodes[x.0].value.sum());
        let rg = self.rg(x);
        Ok(self.push(v, Op::Sum(x.0), rg))
    }

    /// Mean negative log-likelihood loss given log-probabilities.
    ///
    /// Combined with [`Tape::log_softmax`] this is the cross-entropy
    /// `L_CE(p_w, y)` of paper Eq. 2.
    pub fn nll_mean(&mut self, logp: Var, targets: &[usize]) -> Result<Var> {
        self.check(logp)?;
        let lp = &self.nodes[logp.0].value;
        if lp.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: lp.rank(),
                expected: 2,
                op: "nll_mean",
            });
        }
        let (b, k) = (lp.dims()[0], lp.dims()[1]);
        if targets.len() != b {
            return Err(TensorError::LengthMismatch { len: targets.len(), expected: b });
        }
        let _prof = lightts_obs::prof::scope("nll.fwd");
        let mut acc = 0.0f32;
        for (bi, &t) in targets.iter().enumerate() {
            if t >= k {
                return Err(TensorError::IndexOutOfBounds {
                    index: vec![bi, t],
                    shape: lp.dims().to_vec(),
                });
            }
            acc -= lp.data()[bi * k + t];
        }
        let v = Tensor::scalar(acc / b as f32);
        let rg = self.rg(logp);
        Ok(self.push(v, Op::NllMean { logp: logp.0, targets: targets.to_vec() }, rg))
    }

    /// Mean Kullback–Leibler divergence `KL(q ‖ p)` over the batch, where
    /// `q` is a constant teacher distribution and `p` is the student
    /// distribution given by its log-probabilities.
    ///
    /// This is the `Dist(q_i, p_w)` term of paper Eq. 2. The node keeps
    /// `q` for its gradient: pass it by value to move it in (a reference
    /// is copied).
    pub fn kl_to_target(&mut self, logp: Var, q: impl Into<Tensor>) -> Result<Var> {
        let q = q.into();
        self.check(logp)?;
        let lp = &self.nodes[logp.0].value;
        if lp.dims() != q.dims() {
            return Err(TensorError::ShapeMismatch {
                left: lp.dims().to_vec(),
                right: q.dims().to_vec(),
                op: "kl_to_target",
            });
        }
        if lp.rank() != 2 {
            return Err(TensorError::RankMismatch {
                found: lp.rank(),
                expected: 2,
                op: "kl_to_target",
            });
        }
        let b = lp.dims()[0];
        let _prof = lightts_obs::prof::scope("kl.fwd");
        let mut acc = 0.0f32;
        for (&qv, &lpv) in q.data().iter().zip(lp.data().iter()) {
            if qv > 0.0 {
                acc += qv * (qv.ln() - lpv);
            }
        }
        let v = Tensor::scalar(acc / b as f32);
        let rg = self.rg(logp);
        Ok(self.push(v, Op::KlToTarget { logp: logp.0, q }, rg))
    }

    /// Mean squared error against a constant target. The node keeps the
    /// target for its gradient: pass it by value to move it in (a
    /// reference is copied).
    pub fn mse_to_target(&mut self, x: Var, target: impl Into<Tensor>) -> Result<Var> {
        let target = target.into();
        self.check(x)?;
        let xv = &self.nodes[x.0].value;
        if xv.dims() != target.dims() {
            return Err(TensorError::ShapeMismatch {
                left: xv.dims().to_vec(),
                right: target.dims().to_vec(),
                op: "mse_to_target",
            });
        }
        let _prof = lightts_obs::prof::scope("mse.fwd");
        let n = xv.len().max(1);
        let mut acc = 0.0f32;
        for (&a, &b) in xv.data().iter().zip(target.data().iter()) {
            acc += (a - b) * (a - b);
        }
        let v = Tensor::scalar(acc / n as f32);
        let rg = self.rg(x);
        Ok(self.push(v, Op::MseToTarget { x: x.0, target }, rg))
    }

    /// Uniform fake quantization of `x` to `bits`, with straight-through
    /// gradients (the backward rule is the identity).
    pub fn fake_quant(&mut self, x: Var, bits: u8) -> Result<Var> {
        self.check(x)?;
        let _prof = lightts_obs::prof::scope("fake_quant.fwd");
        let v = fake_quantize(&self.nodes[x.0].value, bits)?;
        let rg = self.rg(x);
        Ok(self.push(v, Op::FakeQuant { x: x.0, bits }, rg))
    }

    /// Training-mode batch normalization over `[b, c, l]` with per-channel
    /// learnable scale `gamma` and shift `beta`.
    ///
    /// Returns `(output, batch_mean, batch_var)` so callers can maintain
    /// running statistics for inference.
    pub fn batch_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<(Var, Vec<f32>, Vec<f32>)> {
        self.check(x)?;
        self.check(gamma)?;
        self.check(beta)?;
        let xv = &self.nodes[x.0].value;
        if xv.rank() != 3 {
            return Err(TensorError::RankMismatch {
                found: xv.rank(),
                expected: 3,
                op: "batch_norm",
            });
        }
        let (b, c, l) = (xv.dims()[0], xv.dims()[1], xv.dims()[2]);
        let g = &self.nodes[gamma.0].value;
        let be = &self.nodes[beta.0].value;
        if g.len() != c || be.len() != c {
            return Err(TensorError::ShapeMismatch {
                left: xv.dims().to_vec(),
                right: g.dims().to_vec(),
                op: "batch_norm",
            });
        }
        let _prof = lightts_obs::prof::scope("bn.fwd");
        let xd = xv.data();
        let m = (b * l) as f32;
        let mut mean = Vec::with_capacity(c);
        channel_sums([xd], [b, c, l], |_, [v]| [v], |_, [s]| mean.push(s / m));
        let mut var = Vec::with_capacity(c);
        channel_sums(
            [xd],
            [b, c, l],
            |ci, [v]| {
                let d = v - mean[ci];
                [d * d]
            },
            |_, [s]| var.push(s / m),
        );
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut x_hat = pool::take_empty(b * c * l);
        let mut out = pool::take_empty(b * c * l);
        for rows in xd.chunks_exact((c * l).max(1)) {
            for (ci, row) in rows.chunks_exact(l.max(1)).enumerate() {
                let (mu, is, gc, bc) = (mean[ci], inv_std[ci], g.data()[ci], be.data()[ci]);
                let start = x_hat.len();
                x_hat.extend(row.iter().map(|&v| (v - mu) * is));
                out.extend(x_hat[start..].iter().map(|&xh| gc * xh + bc));
            }
        }
        let x_hat = Tensor::from_vec(x_hat, &[b, c, l])?;
        let v = Tensor::from_vec(out, &[b, c, l])?;
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let node = self.push(
            v,
            Op::BatchNorm { x: x.0, gamma: gamma.0, beta: beta.0, aux: BnAux { x_hat, inv_std } },
            rg,
        );
        Ok((node, mean, var))
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar node `root`.
    ///
    /// The returned [`Grads`] hold the gradients of the leaves only: each
    /// non-leaf's gradient is freed as soon as its backward rule has run,
    /// and a rule that passes its gradient through unchanged (`Add`,
    /// `AddBias` for its input, `FakeQuant`) moves it to the parent.
    pub fn backward(&self, root: Var) -> Result<Grads> {
        self.check(root)?;
        if self.nodes[root.0].value.len() != 1 {
            return Err(TensorError::InvalidArgument {
                what: "backward root must be a scalar node",
            });
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Tensor::scalar(1.0));

        for id in (0..=root.0).rev() {
            let node = &self.nodes[id];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            // A non-leaf that does not require a gradient (only the root can
            // hold one) has no rule to run: its gradient drops here.
            let Some(gy) = grads[id].take() else { continue };
            if node.requires_grad {
                self.accumulate_parents(id, gy, &mut grads)?;
            }
        }
        Ok(Grads { grads })
    }

    fn acc(grads: &mut [Option<Tensor>], id: usize, g: Tensor) -> Result<()> {
        match &mut grads[id] {
            Some(existing) => existing.axpy(&g, 1.0),
            slot @ None => {
                *slot = Some(g);
                Ok(())
            }
        }
    }

    /// Runs node `id`'s backward rule on its gradient `gy`, adding each
    /// parent's share into `grads`.
    fn accumulate_parents(
        &self,
        id: usize,
        gy: Tensor,
        grads: &mut [Option<Tensor>],
    ) -> Result<()> {
        let node = &self.nodes[id];
        let _prof = backward_scope(&node.op).map(lightts_obs::prof::scope);
        let rg = |p: usize| self.nodes[p].requires_grad;
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => match (rg(*a), rg(*b)) {
                (true, true) => {
                    Self::acc(grads, *a, gy.clone())?;
                    Self::acc(grads, *b, gy)?;
                }
                (true, false) => Self::acc(grads, *a, gy)?,
                (false, true) => Self::acc(grads, *b, gy)?,
                (false, false) => {}
            },
            Op::Scale(a, s) => {
                if rg(*a) {
                    Self::acc(grads, *a, gy.scale(*s))?;
                }
            }
            Op::Relu(a) => {
                if rg(*a) {
                    let x = &self.nodes[*a].value;
                    let gx = gy.zip_map(x, |g, x| g * if x > 0.0 { 1.0 } else { 0.0 })?;
                    Self::acc(grads, *a, gx)?;
                }
            }
            Op::MatMul(a, b) => {
                let av = &self.nodes[*a].value;
                let bv = &self.nodes[*b].value;
                if rg(*a) {
                    // dA = dY Bᵀ
                    Self::acc(grads, *a, gy.matmul(&bv.transpose2()?)?)?;
                }
                if rg(*b) {
                    // dB = Aᵀ dY
                    Self::acc(grads, *b, av.transpose2()?.matmul(&gy)?)?;
                }
            }
            Op::Conv1d { x, w } => {
                let xv = &self.nodes[*x].value;
                let wv = &self.nodes[*w].value;
                if rg(*x) {
                    Self::acc(grads, *x, conv1d_backward_input(&gy, wv, xv.dims())?)?;
                }
                if rg(*w) {
                    Self::acc(grads, *w, conv1d_backward_weight(&gy, xv, wv.dims())?)?;
                }
            }
            Op::AddBias { x, bias } => {
                if rg(*bias) {
                    let c = self.nodes[*bias].value.len();
                    let mut gb = pool::take_zeroed(c);
                    if gy.rank() == 2 {
                        for row in gy.data().chunks_exact(c.max(1)) {
                            for (s, &g) in gb.iter_mut().zip(row) {
                                *s += g;
                            }
                        }
                    } else {
                        let l = gy.dims()[2];
                        for rows in gy.data().chunks_exact((c * l).max(1)) {
                            for (s, row) in gb.iter_mut().zip(rows.chunks_exact(l.max(1))) {
                                *s += row.iter().sum::<f32>();
                            }
                        }
                    }
                    Self::acc(grads, *bias, Tensor::from_vec(gb, &[c])?)?;
                }
                if rg(*x) {
                    Self::acc(grads, *x, gy)?;
                }
            }
            Op::ConcatChannels(parts) => {
                let (b, c_total, l) = (gy.dims()[0], gy.dims()[1], gy.dims()[2]);
                let mut c_off = 0usize;
                for &p in parts {
                    let ci = self.nodes[p].value.dims()[1];
                    if rg(p) {
                        let mut gp = pool::take_empty(b * ci * l);
                        for bi in 0..b {
                            let src = (bi * c_total + c_off) * l;
                            gp.extend_from_slice(&gy.data()[src..src + ci * l]);
                        }
                        Self::acc(grads, p, Tensor::from_vec(gp, &[b, ci, l])?)?;
                    }
                    c_off += ci;
                }
            }
            Op::Gap(x) => {
                if rg(*x) {
                    let xd = self.nodes[*x].value.dims();
                    let l = xd[2];
                    let mut gx = pool::take_empty(xd.iter().product());
                    for &g in gy.data() {
                        gx.resize(gx.len() + l, g / l as f32);
                    }
                    Self::acc(grads, *x, Tensor::from_vec(gx, xd)?)?;
                }
            }
            Op::LogSoftmax(x) => {
                if rg(*x) {
                    // d/dx log_softmax: gx = gy − softmax(x) · Σ_row gy
                    let lsm = &node.value;
                    let k = lsm.dims()[1];
                    let mut gx = pool::take_empty(lsm.len());
                    let rows =
                        gy.data().chunks_exact(k.max(1)).zip(lsm.data().chunks_exact(k.max(1)));
                    for (g_row, lsm_row) in rows {
                        let row_sum: f32 = g_row.iter().sum();
                        gx.extend(
                            g_row.iter().zip(lsm_row).map(|(&g, &lp)| g - lp.exp() * row_sum),
                        );
                    }
                    Self::acc(grads, *x, Tensor::from_vec(gx, lsm.dims())?)?;
                }
            }
            Op::Mean(x) => {
                if rg(*x) {
                    let n = self.nodes[*x].value.len().max(1) as f32;
                    let g = gy.item()? / n;
                    let dims = self.nodes[*x].value.dims().to_vec();
                    Self::acc(grads, *x, Tensor::full(&dims, g))?;
                }
            }
            Op::Sum(x) => {
                if rg(*x) {
                    let g = gy.item()?;
                    let dims = self.nodes[*x].value.dims().to_vec();
                    Self::acc(grads, *x, Tensor::full(&dims, g))?;
                }
            }
            Op::NllMean { logp, targets } => {
                if rg(*logp) {
                    let dims = self.nodes[*logp].value.dims().to_vec();
                    let (b, k) = (dims[0], dims[1]);
                    let g = gy.item()? / b as f32;
                    let mut gl = pool::take_zeroed(b * k);
                    for (bi, &t) in targets.iter().enumerate() {
                        gl[bi * k + t] = -g;
                    }
                    Self::acc(grads, *logp, Tensor::from_vec(gl, &dims)?)?;
                }
            }
            Op::KlToTarget { logp, q } => {
                if rg(*logp) {
                    let b = q.dims()[0] as f32;
                    let g = gy.item()? / b;
                    Self::acc(grads, *logp, q.map(|v| v * -g))?;
                }
            }
            Op::MseToTarget { x, target } => {
                if rg(*x) {
                    let xv = &self.nodes[*x].value;
                    let n = xv.len().max(1) as f32;
                    let g = gy.item()? * 2.0 / n;
                    Self::acc(grads, *x, xv.zip_map(target, |a, t| (a - t) * g)?)?;
                }
            }
            Op::FakeQuant { x, .. } => {
                // Straight-through estimator: pass the gradient unchanged.
                if rg(*x) {
                    Self::acc(grads, *x, gy)?;
                }
            }
            Op::BatchNorm { x, gamma, beta, aux } => {
                let (b, c, l) = (gy.dims()[0], gy.dims()[1], gy.dims()[2]);
                let m = (b * l) as f32;
                let (dy, x_hat) = (gy.data(), aux.x_hat.data());
                let mut sum_dy = Vec::with_capacity(c);
                let mut sum_dy_xhat = Vec::with_capacity(c);
                channel_sums(
                    [dy, x_hat],
                    [b, c, l],
                    |_, [dy, xh]| [dy, dy * xh],
                    |_, [s, sx]| {
                        sum_dy.push(s);
                        sum_dy_xhat.push(sx);
                    },
                );
                if rg(*beta) {
                    Self::acc(grads, *beta, Tensor::from_vec(pool::take_copy(&sum_dy), &[c])?)?;
                }
                if rg(*gamma) {
                    Self::acc(
                        grads,
                        *gamma,
                        Tensor::from_vec(pool::take_copy(&sum_dy_xhat), &[c])?,
                    )?;
                }
                if rg(*x) {
                    let gv = self.nodes[*gamma].value.data();
                    let mut gx = pool::take_empty(b * c * l);
                    let (row, rows) = (l.max(1), (c * l).max(1));
                    for (dys, xhs) in dy.chunks_exact(rows).zip(x_hat.chunks_exact(rows)) {
                        let channels = dys.chunks_exact(row).zip(xhs.chunks_exact(row));
                        for (ci, (dy_row, xh_row)) in channels.enumerate() {
                            let coeff = gv[ci] * aux.inv_std[ci] / m;
                            let (sd, sdx) = (sum_dy[ci], sum_dy_xhat[ci]);
                            gx.extend(
                                dy_row
                                    .iter()
                                    .zip(xh_row)
                                    .map(|(&dy, &xh)| coeff * (m * dy - sd - xh * sdx)),
                            );
                        }
                    }
                    Self::acc(grads, *x, Tensor::from_vec(gx, &[b, c, l])?)?;
                }
            }
        }
        Ok(())
    }
}

/// Channels whose sums [`channel_sums`] runs side by side.
const CHANNEL_GROUP: usize = 6;

/// `N` sums per channel over `[b, c, l]` data: sum `n` of channel `ci`
/// adds `term(ci, [src₀[i], …])[n]` for each flat index `i` of the channel,
/// over `(b, t)` in order from `+0.0`, and `sink(ci, sums)` receives them
/// channel by channel. Each sum is one chain, as a loop over one channel
/// would run it. The chains of [`CHANNEL_GROUP`] channels run side by
/// side, which hides the add latency; channels past the last whole group
/// run one at a time.
fn channel_sums<const K: usize, const N: usize>(
    src: [&[f32]; K],
    dims: [usize; 3],
    term: impl Fn(usize, [f32; K]) -> [f32; N],
    mut sink: impl FnMut(usize, [f32; N]),
) {
    let c = dims[1];
    let mut c0 = 0;
    while c0 + CHANNEL_GROUP <= c {
        let sums = group_sums::<CHANNEL_GROUP, K, N>(src, dims, c0, |g, v| term(c0 + g, v));
        for (g, s) in sums.into_iter().enumerate() {
            sink(c0 + g, s);
        }
        c0 += CHANNEL_GROUP;
    }
    for ci in c0..c {
        let [s] = group_sums::<1, K, N>(src, dims, ci, |_, v| term(ci, v));
        sink(ci, s);
    }
}

/// The sums of [`channel_sums`] for the `G` channels from `c0`, with
/// `term(g, values)` giving channel `c0 + g`'s terms.
#[inline(always)]
fn group_sums<const G: usize, const K: usize, const N: usize>(
    src: [&[f32]; K],
    [b, c, l]: [usize; 3],
    c0: usize,
    term: impl Fn(usize, [f32; K]) -> [f32; N],
) -> [[f32; N]; G] {
    let mut acc = [[0.0f32; N]; G];
    for bi in 0..b {
        let rows: [[&[f32]; K]; G] = std::array::from_fn(|g| {
            let off = (bi * c + c0 + g) * l;
            src.map(|s| &s[off..off + l])
        });
        for t in 0..l {
            for (g, (sums, rows)) in acc.iter_mut().zip(&rows).enumerate() {
                let terms = term(g, rows.map(|r| r[t]));
                for (s, v) in sums.iter_mut().zip(terms) {
                    *s += v;
                }
            }
        }
    }
    acc
}

/// The profiler scope of an op's backward rule, for the ops whose kernels
/// open none of their own (the conv and matmul kernels do).
fn backward_scope(op: &Op) -> Option<&'static str> {
    Some(match op {
        Op::Relu(_) => "relu.bwd",
        Op::AddBias { .. } => "bias.bwd",
        Op::ConcatChannels(_) => "concat.bwd",
        Op::Gap(_) => "gap.bwd",
        Op::LogSoftmax(_) => "log_softmax.bwd",
        Op::NllMean { .. } => "nll.bwd",
        Op::KlToTarget { .. } => "kl.bwd",
        Op::MseToTarget { .. } => "mse.bwd",
        Op::FakeQuant { .. } => "fake_quant.bwd",
        Op::BatchNorm { .. } => "bn.bwd",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Central finite-difference gradient of `f` w.r.t. entry `i` of `x`.
    fn fd<F: Fn(&Tensor) -> f32>(f: &F, x: &Tensor, i: usize, eps: f32) -> f32 {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    }

    /// Asserts analytic ≈ finite-difference gradients for all entries.
    fn check_grad<F: Fn(&Tensor) -> f32>(f: F, x: &Tensor, analytic: &Tensor, tol: f32) {
        for i in 0..x.len() {
            let n = fd(&f, x, i, 1e-2);
            let a = analytic.data()[i];
            assert!(
                (a - n).abs() <= tol * (1.0 + n.abs()),
                "entry {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn add_scale_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let xa = Tensor::randn(&mut rng, &[4], 1.0);
        let xb = Tensor::randn(&mut rng, &[4], 1.0);

        let mut tape = Tape::new();
        let a = tape.leaf(xa.clone(), true);
        let b = tape.leaf(xb.clone(), true);
        let ab = tape.add(a, b).unwrap();
        let s = tape.scale(ab, 3.0).unwrap();
        let d = tape.add(s, a).unwrap();
        let loss = tape.sum(d).unwrap();
        let grads = tape.backward(loss).unwrap();

        let f_a = |t: &Tensor| t.add(&xb).unwrap().scale(3.0).add(t).unwrap().sum();
        check_grad(f_a, &xa, grads.get(a).unwrap(), 1e-2);
        let f_b = |t: &Tensor| xa.add(t).unwrap().scale(3.0).add(&xa).unwrap().sum();
        check_grad(f_b, &xb, grads.get(b).unwrap(), 1e-2);
    }

    #[test]
    fn relu_grad_masks_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]).unwrap();
        let mut tape = Tape::new();
        let a = tape.leaf(x, true);
        let r = tape.relu(a).unwrap();
        let loss = tape.sum(r).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn matmul_grads_match_fd() {
        let mut rng = StdRng::seed_from_u64(2);
        let xa = Tensor::randn(&mut rng, &[3, 4], 1.0);
        let xb = Tensor::randn(&mut rng, &[4, 2], 1.0);
        let mut tape = Tape::new();
        let a = tape.leaf(xa.clone(), true);
        let b = tape.leaf(xb.clone(), true);
        let y = tape.matmul(a, b).unwrap();
        let loss = tape.mean(y).unwrap();
        let grads = tape.backward(loss).unwrap();
        check_grad(|t| t.matmul(&xb).unwrap().mean(), &xa, grads.get(a).unwrap(), 1e-2);
        check_grad(|t| xa.matmul(t).unwrap().mean(), &xb, grads.get(b).unwrap(), 1e-2);
    }

    #[test]
    fn conv_grads_match_fd() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&mut rng, &[2, 2, 7], 1.0);
        let w = Tensor::randn(&mut rng, &[3, 2, 4], 0.5);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone(), true);
        let wv = tape.leaf(w.clone(), true);
        let y = tape.conv1d(xv, wv).unwrap();
        let loss = tape.mean(y).unwrap();
        let grads = tape.backward(loss).unwrap();
        check_grad(
            |t| crate::conv::conv1d_forward(t, &w).unwrap().mean(),
            &x,
            grads.get(xv).unwrap(),
            2e-2,
        );
        check_grad(
            |t| crate::conv::conv1d_forward(&x, t).unwrap().mean(),
            &w,
            grads.get(wv).unwrap(),
            2e-2,
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn log_softmax_nll_equals_softmax_cross_entropy_grad() {
        // For CE after log-softmax the input gradient is (softmax − onehot)/B.
        let logits = Tensor::from_vec(vec![0.5, -0.2, 1.0, 0.0, 0.3, -0.7], &[2, 3]).unwrap();
        let targets = vec![2usize, 0];
        let mut tape = Tape::new();
        let x = tape.leaf(logits.clone(), true);
        let lp = tape.log_softmax(x).unwrap();
        let loss = tape.nll_mean(lp, &targets).unwrap();
        let grads = tape.backward(loss).unwrap();
        let sm = logits.softmax_rows().unwrap();
        let gx = grads.get(x).unwrap();
        for bi in 0..2 {
            for k in 0..3 {
                let onehot = if targets[bi] == k { 1.0 } else { 0.0 };
                let expect = (sm.get(&[bi, k]).unwrap() - onehot) / 2.0;
                let got = gx.get(&[bi, k]).unwrap();
                assert!((got - expect).abs() < 1e-5, "({bi},{k}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn kl_to_target_is_zero_when_equal_and_positive_otherwise() {
        let q = Tensor::from_vec(vec![0.7, 0.3], &[1, 2]).unwrap();
        let logits_eq = q.map(f32::ln);
        let mut tape = Tape::new();
        let x = tape.leaf(logits_eq, true);
        let kl = tape.kl_to_target(x, &q).unwrap();
        assert!(tape.value(kl).unwrap().item().unwrap().abs() < 1e-5);

        let mut tape2 = Tape::new();
        let logits_ne = Tensor::from_vec(vec![0.1f32.ln(), 0.9f32.ln()], &[1, 2]).unwrap();
        let x2 = tape2.leaf(logits_ne, true);
        let kl2 = tape2.kl_to_target(x2, &q).unwrap();
        assert!(tape2.value(kl2).unwrap().item().unwrap() > 0.0);
    }

    #[test]
    fn kl_grad_matches_fd() {
        let mut rng = StdRng::seed_from_u64(5);
        let logits = Tensor::randn(&mut rng, &[2, 4], 1.0);
        let q =
            Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.25, 0.25, 0.25, 0.25], &[2, 4]).unwrap();
        let mut tape = Tape::new();
        let x = tape.leaf(logits.clone(), true);
        let lp = tape.log_softmax(x).unwrap();
        let kl = tape.kl_to_target(lp, &q).unwrap();
        let grads = tape.backward(kl).unwrap();
        let q2 = q.clone();
        let f = move |t: &Tensor| {
            let lp = t.log_softmax_rows().unwrap();
            let mut acc = 0.0f32;
            for (&qv, &lpv) in q2.data().iter().zip(lp.data().iter()) {
                if qv > 0.0 {
                    acc += qv * (qv.ln() - lpv);
                }
            }
            acc / 2.0
        };
        check_grad(f, &logits, grads.get(x).unwrap(), 1e-2);
    }

    #[test]
    fn gap_and_concat_grads_match_fd() {
        let mut rng = StdRng::seed_from_u64(7);
        let x1 = Tensor::randn(&mut rng, &[2, 2, 5], 1.0);
        let x2 = Tensor::randn(&mut rng, &[2, 3, 5], 1.0);
        let mut tape = Tape::new();
        let a = tape.leaf(x1.clone(), true);
        let b = tape.leaf(x2.clone(), true);
        let c = tape.concat_channels(&[a, b]).unwrap();
        let g = tape.gap(c).unwrap();
        let loss = tape.sum(g).unwrap();
        let grads = tape.backward(loss).unwrap();
        // analytic: every input element's grad is 1/l (concat then gap then sum)
        for v in grads.get(a).unwrap().data() {
            assert!((v - 0.2).abs() < 1e-6);
        }
        for v in grads.get(b).unwrap().data() {
            assert!((v - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn add_bias_broadcast_and_grad() {
        let x = Tensor::zeros(&[2, 3, 4]);
        let bias = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let mut tape = Tape::new();
        let xv = tape.leaf(x, false);
        let bv = tape.leaf(bias, true);
        let y = tape.add_bias(xv, bv).unwrap();
        assert_eq!(tape.value(y).unwrap().get(&[0, 1, 0]).unwrap(), 2.0);
        let loss = tape.sum(y).unwrap();
        let grads = tape.backward(loss).unwrap();
        // each channel contributes batch·length = 8 ones
        assert_eq!(grads.get(bv).unwrap().data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn fake_quant_is_straight_through() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&mut rng, &[16], 1.0);
        let mut tape = Tape::new();
        let a = tape.leaf(x, true);
        let q = tape.fake_quant(a, 4).unwrap();
        let loss = tape.sum(q).unwrap();
        let grads = tape.backward(loss).unwrap();
        for v in grads.get(a).unwrap().data() {
            assert_eq!(*v, 1.0);
        }
    }

    #[test]
    fn batch_norm_output_is_normalized() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&mut rng, &[4, 2, 8], 3.0).add_scalar(5.0);
        let mut tape = Tape::new();
        let xv = tape.leaf(x, true);
        let g = tape.leaf(Tensor::ones(&[2]), true);
        let b = tape.leaf(Tensor::zeros(&[2]), true);
        let (y, mean, var) = tape.batch_norm(xv, g, b, 1e-5).unwrap();
        let yv = tape.value(y).unwrap();
        // output per-channel mean ≈ 0, var ≈ 1
        for ci in 0..2 {
            let mut s = 0.0;
            let mut s2 = 0.0;
            let mut n = 0.0;
            for bi in 0..4 {
                for t in 0..8 {
                    let v = yv.get(&[bi, ci, t]).unwrap();
                    s += v;
                    s2 += v * v;
                    n += 1.0;
                }
            }
            assert!((s / n).abs() < 1e-4);
            assert!((s2 / n - 1.0).abs() < 1e-2);
        }
        assert!(mean[0].abs() > 1.0, "input mean should be near 5");
        assert!(var[0] > 1.0);
    }

    #[test]
    fn batch_norm_grads_match_fd() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(&mut rng, &[2, 2, 4], 1.0);
        let gamma = Tensor::from_vec(vec![1.5, 0.5], &[2]).unwrap();
        let beta = Tensor::from_vec(vec![0.1, -0.2], &[2]).unwrap();

        let run = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone(), false);
            let gv = tape.leaf(g.clone(), false);
            let bv = tape.leaf(b.clone(), false);
            let (y, _, _) = tape.batch_norm(xv, gv, bv, 1e-5).unwrap();
            // use a non-uniform downstream fn so grads are informative
            let r = tape.relu(y).unwrap();
            let loss = tape.mean(r).unwrap();
            tape.value(loss).unwrap().item().unwrap()
        };

        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone(), true);
        let gv = tape.leaf(gamma.clone(), true);
        let bv = tape.leaf(beta.clone(), true);
        let (y, _, _) = tape.batch_norm(xv, gv, bv, 1e-5).unwrap();
        let r = tape.relu(y).unwrap();
        let loss = tape.mean(r).unwrap();
        let grads = tape.backward(loss).unwrap();

        let g2 = gamma.clone();
        let b2 = beta.clone();
        check_grad(|t| run(t, &g2, &b2), &x, grads.get(xv).unwrap(), 5e-2);
        let x2 = x.clone();
        let b3 = beta.clone();
        check_grad(|t| run(&x2, t, &b3), &gamma, grads.get(gv).unwrap(), 5e-2);
        let x3 = x.clone();
        let g3 = gamma.clone();
        check_grad(|t| run(&x3, &g3, t), &beta, grads.get(bv).unwrap(), 5e-2);
    }

    /// Every op on one tape: after `backward`, each leaf that requires a
    /// gradient and feeds the loss has one, constants have none, and no
    /// non-leaf keeps one.
    #[test]
    fn backward_keeps_leaf_gradients_only() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::randn(&mut rng, &[2, 1, 6], 1.0));
        let w = tape.leaf(Tensor::randn(&mut rng, &[3, 1, 3], 0.5), true);
        let bias = tape.leaf(Tensor::randn(&mut rng, &[3], 0.1), true);
        let gamma = tape.leaf(Tensor::ones(&[6]), true);
        let beta = tape.leaf(Tensor::zeros(&[6]), true);
        let fc = tape.leaf(Tensor::randn(&mut rng, &[6, 3], 0.5), true);
        let fc_bias = tape.leaf(Tensor::zeros(&[3]), true);
        let wq = tape.fake_quant(w, 4).unwrap();
        let y = tape.conv1d(x, wq).unwrap();
        let y = tape.add_bias(y, bias).unwrap();
        let half = tape.scale(y, 0.5).unwrap();
        let cat = tape.concat_channels(&[y, half]).unwrap();
        let (bn, _, _) = tape.batch_norm(cat, gamma, beta, 1e-5).unwrap();
        let r = tape.relu(bn).unwrap();
        let pooled = tape.gap(r).unwrap();
        let logits = tape.matmul(pooled, fc).unwrap();
        let logits = tape.add_bias(logits, fc_bias).unwrap();
        let lp = tape.log_softmax(logits).unwrap();
        let ce = tape.nll_mean(lp, &[0, 2]).unwrap();
        let kl = tape.kl_to_target(lp, Tensor::full(&[2, 3], 1.0 / 3.0)).unwrap();
        let mse = tape.mse_to_target(pooled, Tensor::zeros(&[2, 6])).unwrap();
        let m = tape.mean(r).unwrap();
        let s = tape.sum(pooled).unwrap();
        let mut loss = tape.add(ce, kl).unwrap();
        for term in [mse, m, s] {
            loss = tape.add(loss, term).unwrap();
        }
        let grads = tape.backward(loss).unwrap();
        for (i, node) in tape.nodes.iter().enumerate() {
            let kept = grads.get(Var(i)).is_some();
            if matches!(node.op, Op::Leaf) {
                assert_eq!(kept, node.requires_grad, "leaf {i}");
            } else {
                assert!(!kept, "non-leaf {i} kept its gradient");
            }
        }
    }

    #[test]
    fn backward_requires_scalar_root() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3]), true);
        assert!(tape.backward(a).is_err());
    }

    #[test]
    fn grad_accumulates_across_reuse() {
        // loss = sum(a) + sum(a) ⇒ grad = 2 everywhere
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[3]), true);
        let s1 = tape.sum(a).unwrap();
        let s2 = tape.sum(a).unwrap();
        let loss = tape.add(s1, s2).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn no_grad_for_constants() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::ones(&[2]));
        let b = tape.leaf(Tensor::ones(&[2]), true);
        let y = tape.add(a, b).unwrap();
        let loss = tape.sum(y).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert!(grads.get(a).is_none());
        assert!(grads.get(b).is_some());
    }

    #[test]
    fn tape_constructions_are_counted() {
        let before = tapes_created();
        let _t1 = Tape::new();
        let _t2 = Tape::default();
        assert!(tapes_created() >= before + 2);
    }

    #[test]
    fn reset_clears_nodes_without_counting_a_new_tape() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::ones(&[4]), true);
        let _ = tape.scale(a, 2.0).unwrap();
        assert_eq!(tape.len(), 2);
        let before = thread_tapes_created();
        tape.reset();
        assert!(tape.is_empty());
        assert_eq!(thread_tapes_created(), before);
        // The tape is reusable: record and differentiate a fresh step.
        let b = tape.leaf(Tensor::ones(&[3]), true);
        let loss = tape.sum(b).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(b).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn invalid_var_is_rejected() {
        let mut t1 = Tape::new();
        let _ = t1.leaf(Tensor::ones(&[1]), true);
        let t2 = Tape::new();
        assert!(t2.value(Var(0)).is_err());
    }

    #[test]
    fn mse_to_target_value_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let t = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let mut tape = Tape::new();
        let xv = tape.leaf(x, true);
        let loss = tape.mse_to_target(xv, &t).unwrap();
        assert!((tape.value(loss).unwrap().item().unwrap() - 2.5).abs() < 1e-6);
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads.get(xv).unwrap().data(), &[1.0, 2.0]); // 2(x−t)/n
    }
}

//! The InceptionTime classifier (paper Section 2.2).
//!
//! An InceptionTime model is a stack of *blocks*; each block applies several
//! same-padded 1-D convolutions **in parallel** to the block input — the
//! filter length halving from layer to layer (e.g. 40, 20, 10) so patterns of
//! different time spans are captured — and concatenates their outputs
//! channel-wise (`T^(i) = ∥_k T^(i-1) * F_k`). Batch-norm + ReLU follow each
//! block; global average pooling and a fully-connected softmax head produce
//! the class distribution.
//!
//! The same type serves as the full-precision teacher (32-bit everywhere)
//! and the quantized student: every block carries its own bit-width, exactly
//! the `(L_j, F_j, W_j)` per-block search space of Section 3.3.1. With its
//! head read as regression outputs it is also the network of the
//! [`Forecaster`](crate::forecaster::Forecaster).

use crate::{Classifier, ModelError, Result};
use lightts_data::LabeledDataset;
use lightts_nn::layers::{BatchNorm1d, Conv1d, Linear};
use lightts_nn::optim::{Adam, Optimizer, Sgd};
use lightts_nn::serialize::{decode_store, encode_store, StoreForm};
use lightts_nn::{size, Bindings, Mode, ParamStore};
use lightts_obs::checkpoint::{Cursor, SectionReader, SectionWriter};
use lightts_tensor::rng::seeded;
use lightts_tensor::tape::{Tape, Var};
use lightts_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration of one InceptionTime block: the `(L_j, F_j, W_j)` tuple of
/// the paper's student-setting encoding (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    /// Number of parallel convolution layers `L_j`.
    pub layers: usize,
    /// Filter length of the first layer `F_j`; subsequent layers halve it.
    pub filter_len: usize,
    /// Storage bit-width `W_j` of this block's parameters.
    pub bits: u8,
}

impl BlockSpec {
    /// The kernel length of layer `j` within the block: `max(1, F >> j)`,
    /// additionally capped at the series length so degenerate kernels are
    /// never built.
    pub fn kernel(&self, layer: usize, series_len: usize) -> usize {
        let halved = u32::try_from(layer).ok().and_then(|s| self.filter_len.checked_shr(s));
        halved.unwrap_or(0).max(1).min(series_len.max(1))
    }
}

/// Full configuration of an InceptionTime model.
#[derive(Debug, Clone, PartialEq)]
pub struct InceptionConfig {
    /// Per-block specs.
    pub blocks: Vec<BlockSpec>,
    /// Convolution filters (output channels) per layer.
    pub filters: usize,
    /// Input dimensionality `M` of the series.
    pub in_dims: usize,
    /// Series length (used to cap kernels).
    pub in_len: usize,
    /// Number of classes.
    pub num_classes: usize,
}

impl InceptionConfig {
    /// The paper's default full-precision teacher: 3 blocks of 3 layers,
    /// first-layer filter length 40, 32-bit parameters.
    pub fn teacher(in_dims: usize, in_len: usize, num_classes: usize, filters: usize) -> Self {
        InceptionConfig {
            blocks: vec![BlockSpec { layers: 3, filter_len: 40, bits: 32 }; 3],
            filters,
            in_dims,
            in_len,
            num_classes,
        }
    }

    /// The Problem-Scenario-1 student: 3 blocks × 3 layers, a uniform
    /// bit-width, filter length 40 (paper Section 4.2.1).
    pub fn student(
        in_dims: usize,
        in_len: usize,
        num_classes: usize,
        filters: usize,
        bits: u8,
    ) -> Self {
        InceptionConfig {
            blocks: vec![BlockSpec { layers: 3, filter_len: 40, bits }; 3],
            filters,
            in_dims,
            in_len,
            num_classes,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.blocks.is_empty() {
            return Err(ModelError::BadConfig { what: "no blocks".into() });
        }
        if self.filters == 0 || self.in_dims == 0 || self.num_classes == 0 || self.in_len == 0 {
            return Err(ModelError::BadConfig { what: "zero-sized dimension".into() });
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.layers == 0 || b.filter_len == 0 {
                return Err(ModelError::BadConfig { what: format!("block {i} empty") });
            }
            if b.bits == 0 || b.bits > 32 {
                return Err(ModelError::BadConfig {
                    what: format!("block {i}: bits {} out of 1..=32", b.bits),
                });
            }
        }
        Ok(())
    }

    /// Input channels of block `i`.
    fn block_in_channels(&self, i: usize) -> usize {
        if i == 0 {
            self.in_dims
        } else {
            self.blocks[i - 1].layers * self.filters
        }
    }

    /// Analytic model size in bits, matching
    /// [`ParamStore::size_bits`](lightts_nn::ParamStore::size_bits) of the
    /// instantiated model (verified by test). Batch-norm parameters are
    /// counted at 32 bits; the FC head uses the last block's bit-width.
    pub fn size_bits(&self) -> u64 {
        let mut bits = 0u64;
        for (i, b) in self.blocks.iter().enumerate() {
            let cin = self.block_in_channels(i);
            for j in 0..b.layers {
                let k = b.kernel(j, self.in_len);
                bits += size::conv1d_params(cin, self.filters, k) as u64 * u64::from(b.bits);
            }
            bits += size::batchnorm_params(b.layers * self.filters) as u64 * 32;
        }
        let last_c = self.blocks.last().map_or(0, |b| b.layers * self.filters);
        let fc_bits = self.blocks.last().map_or(32, |b| b.bits);
        bits += size::linear_params(last_c, self.num_classes) as u64 * u64::from(fc_bits);
        bits
    }

    /// Analytic size in kilobytes.
    pub fn size_kb(&self) -> f64 {
        size::bits_to_kb(self.size_bits())
    }

    /// Elements a model built from this config holds — its parameters
    /// and batch-norm statistics with a `head_out`-wide linear head — plus
    /// one input sample; `None` on overflow.
    fn checked_elems(&self, head_out: usize) -> Option<usize> {
        let mut total = self.in_dims.checked_mul(self.in_len)?;
        let mut cin = self.in_dims;
        for b in &self.blocks {
            for j in 0..b.layers {
                let weights =
                    self.filters.checked_mul(cin)?.checked_mul(b.kernel(j, self.in_len))?;
                total = total.checked_add(weights)?.checked_add(self.filters)?;
            }
            cin = b.layers.checked_mul(self.filters)?;
            total = total.checked_add(cin.checked_mul(4)?)?;
        }
        total.checked_add(cin.checked_add(1)?.checked_mul(head_out)?)
    }
}

/// Container kinds of the packed and the exact InceptionTime export.
const KIND: &str = "inception";
const KIND_EXACT: &str = "inception.exact";

/// Upper bound on [`InceptionConfig::checked_elems`] of a stored model.
/// No real configuration comes near it; a stored config beyond it is
/// refused before any model is built.
const MAX_MODEL_ELEMS: usize = 64 * 1024 * 1024;

/// Encodes the `config` section shared by the InceptionTime and the
/// forecaster exports; `head` is the forecaster's output width.
pub(crate) fn config_bytes(c: &InceptionConfig, head: Option<usize>) -> Vec<u8> {
    let mut buf = (c.blocks.len() as u32).to_le_bytes().to_vec();
    for b in &c.blocks {
        buf.extend_from_slice(&(b.layers as u32).to_le_bytes());
        buf.extend_from_slice(&(b.filter_len as u32).to_le_bytes());
        buf.push(b.bits);
    }
    for v in [c.filters, c.in_dims, c.in_len, c.num_classes].into_iter().chain(head) {
        buf.extend_from_slice(&(v as u32).to_le_bytes());
    }
    buf
}

/// Decodes a `config` section written by [`config_bytes`] (with a head
/// width iff `with_head`) into the config and its head width. A config
/// whose model would exceed [`MAX_MODEL_ELEMS`] — by checked arithmetic
/// over all of its fields, not each field alone — is an error.
pub(crate) fn read_config(bytes: &[u8], with_head: bool) -> Result<(InceptionConfig, usize)> {
    let mut c = Cursor::new(bytes);
    let n_blocks = c.u32()? as usize;
    if n_blocks > 64 {
        return Err(ModelError::BadConfig { what: format!("load: {n_blocks} blocks") });
    }
    let blocks = (0..n_blocks)
        .map(|_| {
            Ok(BlockSpec {
                layers: c.u32()? as usize,
                filter_len: c.u32()? as usize,
                bits: c.u8()?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let config = InceptionConfig {
        blocks,
        filters: c.u32()? as usize,
        in_dims: c.u32()? as usize,
        in_len: c.u32()? as usize,
        num_classes: c.u32()? as usize,
    };
    let head_out = if with_head { c.u32()? as usize } else { config.num_classes };
    c.finish()?;
    let plausible = config.blocks.iter().all(|b| b.layers <= 256)
        && config.checked_elems(head_out).is_some_and(|n| n <= MAX_MODEL_ELEMS);
    if !plausible {
        return Err(ModelError::BadConfig { what: "load: implausible configuration".into() });
    }
    Ok((config, head_out))
}

/// Hyper-parameters of supervised teacher training, [`InceptionTime::fit`].
/// Students run the same mini-batch loop, [`InceptionTime::train_epochs`],
/// from the distillation crate with the composite Eq.-2 loss.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (paper: 64).
    pub batch_size: usize,
    /// Learning rate (paper: 0.01 for teachers).
    pub lr: f32,
    /// Use Adam (teachers) rather than SGD.
    pub adam: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 60, batch_size: 64, lr: 0.01, adam: true, seed: 7 }
    }
}

/// One block's parallel convolutions and batch norm.
#[derive(Debug, Clone)]
struct Block {
    convs: Vec<Conv1d>,
    bn: BatchNorm1d,
}

/// An InceptionTime classifier instance.
#[derive(Debug, Clone)]
pub struct InceptionTime {
    config: InceptionConfig,
    store: ParamStore,
    blocks: Vec<Block>,
    fc: Linear,
    name: String,
}

impl InceptionTime {
    /// Builds a randomly initialized model.
    pub fn new<R: Rng>(config: InceptionConfig, rng: &mut R) -> Result<Self> {
        Self::build(config, "block", "fc", rng)
    }

    /// Builds a randomly initialized network with a `config.num_classes`-wide
    /// linear head. Block `i` names its parameters `{prefix}{i}.conv{j}` and
    /// `{prefix}{i}.bn`, and the head is named `head`; the names are part of
    /// every export, so each model family keeps its own.
    pub(crate) fn build<R: Rng>(
        config: InceptionConfig,
        prefix: &str,
        head: &str,
        rng: &mut R,
    ) -> Result<Self> {
        config.validate()?;
        let mut store = ParamStore::new();
        let mut blocks = Vec::with_capacity(config.blocks.len());
        for (i, spec) in config.blocks.iter().enumerate() {
            let cin = config.block_in_channels(i);
            let mut convs = Vec::with_capacity(spec.layers);
            for j in 0..spec.layers {
                let k = spec.kernel(j, config.in_len);
                convs.push(Conv1d::new(
                    &mut store,
                    rng,
                    &format!("{prefix}{i}.conv{j}"),
                    cin,
                    config.filters,
                    k,
                    spec.bits,
                )?);
            }
            let bn = BatchNorm1d::new(
                &mut store,
                &format!("{prefix}{i}.bn"),
                spec.layers * config.filters,
            )?;
            blocks.push(Block { convs, bn });
        }
        let last_c = config.blocks.last().map_or(0, |b| b.layers * config.filters);
        let fc_bits = config.blocks.last().map_or(32, |b| b.bits);
        let fc = Linear::with_name(&mut store, rng, head, last_c, config.num_classes, fc_bits)?;
        Ok(InceptionTime { config, store, blocks, fc, name: "InceptionTime".to_string() })
    }

    /// The model configuration.
    pub fn config(&self) -> &InceptionConfig {
        &self.config
    }

    /// The parameter store (for optimizers and size accounting).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Instantiated model size in bits.
    pub fn size_bits(&self) -> u64 {
        self.store.size_bits()
    }

    /// Training-path forward pass producing logits `[batch, classes]` on the
    /// tape. `mode` selects batch vs. running statistics for batch norm;
    /// [`Mode::Eval`] is the reference the compiled plan is tested against
    /// bit for bit, and no library caller passes it.
    pub fn forward_train(
        &mut self,
        tape: &mut Tape,
        bind: &mut Bindings,
        inputs: &Tensor,
        mode: Mode,
    ) -> Result<Var> {
        let mut x = tape.constant(inputs.clone());
        // Split borrows: blocks need &mut for BN running stats, store is read.
        let store = &self.store;
        for block in &mut self.blocks {
            let mut outs = Vec::with_capacity(block.convs.len());
            for conv in &block.convs {
                outs.push(conv.forward(tape, bind, store, x)?);
            }
            let cat = tape.concat_channels(&outs)?;
            let normed = block.bn.forward(tape, bind, store, cat, mode)?;
            x = tape.relu(normed)?;
        }
        let pooled = tape.gap(x)?;
        Ok(self.fc.forward(tape, bind, store, pooled)?)
    }

    /// Inference logits `[batch, classes]` of a `[batch, in_dims, in_len]`
    /// input: the model is [compiled](Self::compile) and the plan's
    /// [`logits`](crate::inference::InferencePlan::logits) run, so every
    /// evaluation computes what the deployed model serves. A zero-row batch
    /// or any other input shape is an error.
    pub fn logits(&self, inputs: &Tensor) -> Result<Tensor> {
        self.plan()?.logits(inputs)
    }

    /// Compiles the model into a tape-free [`InferencePlan`](crate::inference::InferencePlan)
    /// (pre-quantized weights, folded batch-norm, reusable scratch).
    ///
    /// The plan's logits are bitwise identical to
    /// [`forward_train`](Self::forward_train) in [`Mode::Eval`]; see
    /// [`crate::inference`] for why. Each call is one `inference.compile`
    /// span and one `inference.plans_compiled` count; evaluations
    /// ([`logits`](Self::logits), `predict_proba`) build the same plan
    /// untraced, so both count served models and direct compiles only.
    pub fn compile(&self) -> Result<crate::inference::InferencePlan> {
        let mut sp = lightts_obs::span!("inference.compile", {
            blocks: self.blocks.len(),
            size_bits: self.size_bits(),
        });
        lightts_obs::global().counter("inference.plans_compiled").inc();
        let plan = self.plan()?;
        sp.record("classes", self.config.num_classes);
        Ok(plan)
    }

    /// The f32 plan [`compile`](Self::compile) returns, built untraced.
    fn plan(&self) -> Result<crate::inference::InferencePlan> {
        use crate::inference::{InferencePlan, PlanBlock, PlanConv, PlanWeights};
        // The plan keeps its vectors in plain allocations and lets the pooled
        // tensors drop back into the pool: every evaluation compiles, and
        // `into_vec` would take a slab out of the pool per call.
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let mut convs = Vec::with_capacity(block.convs.len());
            for conv in &block.convs {
                let (w, b) = conv.quantized_params(&self.store)?;
                convs.push(PlanConv { weight: w, bias: b.data().to_vec() });
            }
            let (bn_scale, bn_shift) = block.bn.folded_affine(&self.store)?;
            blocks.push(PlanBlock { convs, bn_scale, bn_shift });
        }
        let (fw, fb) = self.fc.quantized_params(&self.store)?;
        Ok(InferencePlan::new(PlanWeights {
            blocks,
            fc_weight: fw.data().to_vec(),
            fc_bias: fb.data().to_vec(),
            fc_in: self.fc.in_features(),
            in_dims: self.config.in_dims,
            in_len: self.config.in_len,
            num_classes: self.config.num_classes,
        }))
    }

    /// Compiles the model into a true-int8
    /// [`QuantizedPlan`](crate::qinference::QuantizedPlan): every conv / FC
    /// weight is quantized once to `i8` codes with per-output-channel
    /// symmetric scales (from the same fake-quantized parameters the f32
    /// plan hoists, so QAT-trained grids carry over), batch-norm is folded
    /// exactly as in [`Self::compile`], and inference runs the integer
    /// kernels.
    ///
    /// Requires ≤ 8-bit quantization metadata on every quantized layer:
    /// a model configured with 16- or 32-bit blocks (or FC) was never
    /// trained to tolerate 8-bit codes, so compiling it to i8 is refused
    /// with [`ModelError::UnsupportedPlan`] rather than served with silent
    /// accuracy loss.
    pub fn compile_quantized(&self) -> Result<crate::qinference::QuantizedPlan> {
        use crate::qinference::{QPlanBlock, QPlanConv, QPlanWeights, QuantizedPlan};
        use lightts_tensor::qint::QuantizedMatrix;
        for (i, block) in self.blocks.iter().enumerate() {
            for conv in &block.convs {
                if conv.bits() > 8 {
                    return Err(ModelError::UnsupportedPlan {
                        what: format!(
                            "i8 plan: block {i} convs trained at {} bits (> 8); \
                             retrain with bits ≤ 8 or serve the f32 plan",
                            conv.bits()
                        ),
                    });
                }
            }
        }
        if self.fc.bits() > 8 {
            return Err(ModelError::UnsupportedPlan {
                what: format!(
                    "i8 plan: FC head trained at {} bits (> 8); \
                     retrain with bits ≤ 8 or serve the f32 plan",
                    self.fc.bits()
                ),
            });
        }
        let mut sp = lightts_obs::span!("inference.compile_i8", {
            blocks: self.blocks.len(),
            size_bits: self.size_bits(),
        });
        lightts_obs::global().counter("inference.quantized_plans_compiled").inc();
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let mut convs = Vec::with_capacity(block.convs.len());
            for conv in &block.convs {
                let (w, b) = conv.quantized_params(&self.store)?;
                let (filters, cin, k) = (w.dims()[0], w.dims()[1], w.dims()[2]);
                let weight = QuantizedMatrix::quantize_rows_symmetric(w.data(), filters, cin * k)?;
                convs.push(QPlanConv { weight, kernel: k, bias: b.into_vec() });
            }
            let (bn_scale, bn_shift) = block.bn.folded_affine(&self.store)?;
            blocks.push(QPlanBlock { convs, bn_scale, bn_shift });
        }
        let (fw, fb) = self.fc.quantized_params(&self.store)?;
        // The stored FC weight is `[fc_in, num_classes]`; the head runs as
        // a 1×1 conv with one filter per class, so transpose once here.
        let fin = self.fc.in_features();
        let nc = self.config.num_classes;
        let fwd = fw.data();
        let mut fwt = vec![0.0f32; nc * fin];
        for i in 0..fin {
            for c in 0..nc {
                fwt[c * fin + i] = fwd[i * nc + c];
            }
        }
        let weight = QuantizedMatrix::quantize_rows_symmetric(&fwt, nc, fin)?;
        sp.record("classes", nc);
        Ok(QuantizedPlan::new(QPlanWeights {
            blocks,
            fc: QPlanConv { weight, kernel: 1, bias: fb.into_vec() },
            in_dims: self.config.in_dims,
            in_len: self.config.in_len,
            num_classes: nc,
        }))
    }

    /// Channel count of each block's batch-norm layer, in block order.
    pub fn bn_channel_counts(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.bn.channels()).collect()
    }

    /// Overwrites block `i`'s batch-norm running statistics (model surgery
    /// and tests that need non-trivial statistics without training).
    pub fn set_bn_running_stats(&mut self, block: usize, mean: &[f32], var: &[f32]) -> Result<()> {
        let b = self
            .blocks
            .get_mut(block)
            .ok_or_else(|| ModelError::BadConfig { what: format!("no block {block}") })?;
        Ok(b.bn.set_running_stats(mean, var)?)
    }

    /// Supervised training with cross-entropy (used for teachers).
    ///
    /// Returns the mean training loss of the final epoch. Each call is one
    /// `teacher.fit` span (`samples`, `epochs`, `batch`, and the returned
    /// `loss`).
    pub fn fit(&mut self, train: &LabeledDataset, cfg: &TrainConfig) -> Result<f32> {
        let mut sp = lightts_obs::span!("teacher.fit", {
            samples: train.len(),
            epochs: cfg.epochs,
            batch: cfg.batch_size,
        });
        let mut optimizer: Box<dyn Optimizer> =
            if cfg.adam { Box::new(Adam::new(cfg.lr)) } else { Box::new(Sgd::new(cfg.lr, 0.9)) };
        let loss = self.train_epochs(
            train.len(),
            cfg.batch_size,
            cfg.epochs,
            optimizer.as_mut(),
            &mut seeded(cfg.seed),
            |rows| Ok(train.batch(rows).map(|b| (b.inputs, b.labels))?),
            |tape, logits, _, labels| {
                let logp = tape.log_softmax(logits)?;
                Ok(tape.nll_mean(logp, &labels)?)
            },
        )?;
        sp.record("loss", loss);
        Ok(loss)
    }

    /// The mini-batch loop behind every trainer: teacher [`fit`](Self::fit),
    /// [`Forecaster::fit`](crate::forecaster::Forecaster::fit) and the
    /// distillation crate's student loops.
    ///
    /// Each of `epochs` epochs shuffles a fresh `0..n` with `rng` and cuts it
    /// into batches of `batch_size` rows. Per batch, `batch` builds
    /// `(inputs, target)` from the row indices, the network runs
    /// [`forward_train`](Self::forward_train) in [`Mode::Train`], `loss`
    /// builds the scalar loss from the tape, the network output, the rows and
    /// the target (by value, so a loss op keeps it without a copy), and
    /// `optimizer` steps on its gradients. One tape and one
    /// binding set are `reset` per batch, so steady-state steps allocate
    /// nothing (see `lightts_tensor::pool`).
    ///
    /// Returns the mean batch loss of the final epoch (infinite when `epochs`
    /// is 0). A zero `batch_size` is an error.
    #[allow(clippy::too_many_arguments)]
    pub fn train_epochs<T>(
        &mut self,
        n: usize,
        batch_size: usize,
        epochs: usize,
        optimizer: &mut dyn Optimizer,
        rng: &mut StdRng,
        mut batch: impl FnMut(&[usize]) -> Result<(Tensor, T)>,
        mut loss: impl FnMut(&mut Tape, Var, &[usize], T) -> Result<Var>,
    ) -> Result<f32> {
        if batch_size == 0 {
            return Err(ModelError::BadConfig { what: "batch_size must be > 0".into() });
        }
        let mut tape = Tape::new();
        let mut bind = Bindings::new();
        let mut last = f32::INFINITY;
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            let mut sum = 0.0f32;
            for rows in order.chunks(batch_size) {
                let (inputs, target) = batch(rows)?;
                tape.reset();
                bind.reset();
                let out = self.forward_train(&mut tape, &mut bind, &inputs, Mode::Train)?;
                let l = loss(&mut tape, out, rows, target)?;
                sum += tape.value(l)?.item()?;
                let grads = tape.backward(l)?;
                optimizer.step(&mut self.store, &bind.collect_grads(grads))?;
            }
            last = sum / n.div_ceil(batch_size).max(1) as f32;
        }
        Ok(last)
    }

    /// Overrides the display name (e.g. `"teacher-3"`).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Serializes the model — configuration, batch-norm running statistics,
    /// and bit-packed quantized parameters — into a deployable byte buffer
    /// (container kind `inception`).
    ///
    /// A 4-bit student really occupies ≈ 4 bits per parameter
    /// (see [`lightts_nn::serialize`]); the loaded model's inference path is
    /// bit-identical to the saved one.
    pub fn save_bytes(&self) -> Result<Vec<u8>> {
        self.export(KIND, &config_bytes(&self.config, None), StoreForm::Packed)
    }

    /// Serializes the model at **full precision** — same sections as
    /// [`save_bytes`](Self::save_bytes) but the parameters are the raw
    /// `f32` shadow weights (container kind `inception.exact`).
    ///
    /// This is the mid-training *checkpoint* form: resuming training
    /// needs the exact shadow parameters the quantized forward is a view
    /// of, which the size-honest packed form deliberately discards.
    /// Loading via [`load_bytes_exact`](Self::load_bytes_exact) is
    /// bit-identical; the two kinds reject each other's bytes.
    pub fn save_bytes_exact(&self) -> Result<Vec<u8>> {
        self.export(KIND_EXACT, &config_bytes(&self.config, None), StoreForm::Exact)
    }

    /// Writes an export of `kind`: the given `config` section, each block's
    /// batch-norm running mean and variance (`bn`), and the parameter store
    /// in `form` (`params`).
    pub(crate) fn export(&self, kind: &str, config: &[u8], form: StoreForm) -> Result<Vec<u8>> {
        let mut bn = Vec::new();
        for block in &self.blocks {
            let (mean, var) = block.bn.running_stats();
            for &v in mean.iter().chain(var) {
                bn.extend_from_slice(&v.to_le_bytes());
            }
        }
        let mut w = SectionWriter::new(kind);
        w.section("config", config);
        w.section("bn", &bn);
        w.section("params", &encode_store(&self.store, form)?);
        Ok(w.finish())
    }

    /// Loads a model saved by [`InceptionTime::save_bytes`].
    pub fn load_bytes(bytes: &[u8]) -> Result<Self> {
        Self::load_as(bytes, KIND, StoreForm::Packed)
    }

    /// Loads an exact snapshot saved by
    /// [`save_bytes_exact`](Self::save_bytes_exact), bit-identically.
    pub fn load_bytes_exact(bytes: &[u8]) -> Result<Self> {
        Self::load_as(bytes, KIND_EXACT, StoreForm::Exact)
    }

    fn load_as(bytes: &[u8], kind: &str, form: StoreForm) -> Result<Self> {
        let r = SectionReader::parse(bytes, kind)?;
        let (config, _) = read_config(r.require("config")?, false)?;
        // rebuild the structure deterministically, then overwrite its state
        let mut model = InceptionTime::new(config, &mut seeded(0))?;
        model.restore(&r, form)?;
        Ok(model)
    }

    /// Restores the `bn` and `params` sections of an export into a network
    /// freshly built from its `config`, refusing parameters that differ
    /// from the built ones in name, shape or bit-width.
    pub(crate) fn restore(&mut self, r: &SectionReader<'_>, form: StoreForm) -> Result<()> {
        let mut c = r.cursor("bn")?;
        for block in &mut self.blocks {
            let n = block.bn.channels();
            let mean = (0..n).map(|_| c.f32()).collect::<std::result::Result<Vec<_>, _>>()?;
            let var = (0..n).map(|_| c.f32()).collect::<std::result::Result<Vec<_>, _>>()?;
            block.bn.set_running_stats(&mean, &var)?;
        }
        c.finish()?;
        let loaded = decode_store(r.require("params")?, form)?;
        let same_layout = loaded.len() == self.store.len()
            && self.store.iter().zip(loaded.iter()).all(|((_, a), (_, b))| {
                a.name == b.name && a.value.dims() == b.value.dims() && a.bits == b.bits
            });
        if !same_layout {
            return Err(ModelError::BadConfig {
                what: "load: stored parameters do not match the configuration".into(),
            });
        }
        self.store = loaded;
        Ok(())
    }
}

impl Classifier for InceptionTime {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn predict_proba(&self, inputs: &Tensor) -> Result<Tensor> {
        self.plan()?.predict_proba(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightts_data::synth::{Generator, SynthConfig};

    fn tiny_config(classes: usize) -> InceptionConfig {
        InceptionConfig {
            blocks: vec![
                BlockSpec { layers: 2, filter_len: 8, bits: 32 },
                BlockSpec { layers: 2, filter_len: 4, bits: 32 },
            ],
            filters: 4,
            in_dims: 1,
            in_len: 24,
            num_classes: classes,
        }
    }

    fn tiny_data(classes: usize, n: usize, seed: u64) -> LabeledDataset {
        let gen = Generator::new(
            SynthConfig { classes, dims: 1, length: 24, difficulty: 0.1, waveforms: 3 },
            seed,
        );
        gen.split("tiny", n, seed + 1).unwrap()
    }

    #[test]
    fn analytic_size_matches_instantiated_store() {
        let mut rng = seeded(1);
        for bits in [4u8, 8, 16, 32] {
            let mut cfg = tiny_config(5);
            for b in &mut cfg.blocks {
                b.bits = bits;
            }
            let model = InceptionTime::new(cfg.clone(), &mut rng).unwrap();
            assert_eq!(cfg.size_bits(), model.size_bits(), "bits={bits}");
        }
    }

    #[test]
    fn lower_bits_give_smaller_models() {
        let cfg4 = {
            let mut c = tiny_config(5);
            c.blocks.iter_mut().for_each(|b| b.bits = 4);
            c
        };
        let cfg16 = {
            let mut c = tiny_config(5);
            c.blocks.iter_mut().for_each(|b| b.bits = 16);
            c
        };
        assert!(cfg4.size_bits() < cfg16.size_bits());
    }

    #[test]
    fn forward_shapes() {
        let mut rng = seeded(2);
        let model = InceptionTime::new(tiny_config(5), &mut rng).unwrap();
        let x = Tensor::ones(&[3, 1, 24]);
        let logits = model.logits(&x).unwrap();
        assert_eq!(logits.dims(), &[3, 5]);
        let probs = model.predict_proba(&x).unwrap();
        for r in 0..3 {
            let s: f32 = probs.row(r).unwrap().data().iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn logits_refuse_inputs_the_plan_cannot_run() {
        let model = InceptionTime::new(tiny_config(5), &mut seeded(13)).unwrap();
        // a wrong series length, a wrong input dimensionality, zero rows
        for dims in [[2, 1, 48], [2, 2, 24], [0, 1, 24]] {
            let err = model.logits(&Tensor::zeros(&dims)).unwrap_err();
            assert!(matches!(err, ModelError::BadConfig { .. }), "{dims:?}: {err}");
        }
    }

    #[test]
    fn kernels_are_capped_at_series_length() {
        let spec = BlockSpec { layers: 2, filter_len: 160, bits: 32 };
        assert_eq!(spec.kernel(0, 24), 24);
        assert_eq!(spec.kernel(1, 24), 24); // 80 capped
        assert_eq!(spec.kernel(5, 24), 5); // 160>>5 = 5
        assert_eq!(spec.kernel(30, 24), 1); // floor at 1
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let mut rng = seeded(3);
        let mut model = InceptionTime::new(tiny_config(3), &mut rng).unwrap();
        let train = tiny_data(3, 48, 10);
        let cfg = TrainConfig { epochs: 25, batch_size: 16, lr: 0.01, adam: true, seed: 5 };

        // untrained accuracy ≈ chance
        let batch = train.full_batch().unwrap();
        let probs0 = model.predict_proba(&batch.inputs).unwrap();
        let acc0 = crate::metrics::accuracy(&probs0, &batch.labels).unwrap();

        let loss = model.fit(&train, &cfg).unwrap();
        assert!(loss < 1.0f32, "final loss {loss}");

        let probs1 = model.predict_proba(&batch.inputs).unwrap();
        let acc1 = crate::metrics::accuracy(&probs1, &batch.labels).unwrap();
        assert!(acc1 > acc0.max(0.5), "training did not help: {acc0} -> {acc1}");
    }

    #[test]
    fn quantized_student_still_learns() {
        let mut rng = seeded(4);
        let mut cfg = tiny_config(2);
        cfg.blocks.iter_mut().for_each(|b| b.bits = 8);
        let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
        let train = tiny_data(2, 32, 20);
        let tc = TrainConfig { epochs: 20, batch_size: 16, lr: 0.01, adam: true, seed: 6 };
        model.fit(&train, &tc).unwrap();
        let batch = train.full_batch().unwrap();
        let probs = model.predict_proba(&batch.inputs).unwrap();
        let acc = crate::metrics::accuracy(&probs, &batch.labels).unwrap();
        assert!(acc > 0.7, "8-bit student training accuracy {acc}");
    }

    #[test]
    fn config_validation() {
        let mut rng = seeded(5);
        let mut cfg = tiny_config(3);
        cfg.blocks.clear();
        assert!(InceptionTime::new(cfg, &mut rng).is_err());
        let mut cfg = tiny_config(3);
        cfg.blocks[0].bits = 0;
        assert!(InceptionTime::new(cfg, &mut rng).is_err());
        let mut cfg = tiny_config(3);
        cfg.filters = 0;
        assert!(InceptionTime::new(cfg, &mut rng).is_err());
    }

    #[test]
    fn teacher_config_matches_paper_defaults() {
        let cfg = InceptionConfig::teacher(1, 100, 10, 8);
        assert_eq!(cfg.blocks.len(), 3);
        assert!(cfg.blocks.iter().all(|b| b.layers == 3 && b.filter_len == 40 && b.bits == 32));
        let student = InceptionConfig::student(1, 100, 10, 8, 4);
        assert!(student.blocks.iter().all(|b| b.bits == 4));
        assert!(student.size_bits() < cfg.size_bits());
    }

    #[test]
    fn save_load_roundtrip_preserves_inference() {
        let mut rng = seeded(8);
        let mut cfg = tiny_config(3);
        cfg.blocks.iter_mut().for_each(|b| b.bits = 4);
        let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
        // train briefly so BN running stats are non-trivial
        let train = tiny_data(3, 24, 40);
        let tc = TrainConfig { epochs: 4, batch_size: 12, lr: 0.01, adam: true, seed: 9 };
        model.fit(&train, &tc).unwrap();

        let bytes = model.save_bytes().unwrap();
        let loaded = InceptionTime::load_bytes(&bytes).unwrap();
        let x = train.full_batch().unwrap().inputs;
        let p1 = model.predict_proba(&x).unwrap();
        let p2 = loaded.predict_proba(&x).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data().iter()) {
            assert!((a - b).abs() < 1e-5, "inference differs after reload");
        }
        assert_eq!(loaded.size_bits(), model.size_bits());
    }

    #[test]
    fn save_bytes_reflect_bit_width() {
        let mut rng = seeded(9);
        let mut build = |bits: u8| {
            let mut cfg = tiny_config(3);
            cfg.blocks.iter_mut().for_each(|b| b.bits = bits);
            InceptionTime::new(cfg, &mut rng).unwrap()
        };
        let (m4, m32) = (build(4), build(32));
        let s4 = m4.save_bytes().unwrap().len();
        let s32 = m32.save_bytes().unwrap().len();
        // Only the quantized tensors differ: each stores ⌈len/2⌉ code bytes
        // and an 8-byte quantizer at 4 bits, and 4·len bytes at 32.
        let saved: usize = m4
            .store()
            .iter()
            .filter(|(_, p)| p.bits == 4)
            .map(|(_, p)| 4 * p.value.len() - p.value.len().div_ceil(2) - 8)
            .sum();
        assert_eq!(s32 - s4, saved, "4-bit export {s4}B vs 32-bit {s32}B");
    }

    #[test]
    fn exact_snapshot_roundtrips_bit_identically_and_rejects_packed() {
        let mut rng = seeded(12);
        let mut cfg = tiny_config(3);
        cfg.blocks.iter_mut().for_each(|b| b.bits = 4);
        let mut model = InceptionTime::new(cfg, &mut rng).unwrap();
        let train = tiny_data(3, 24, 40);
        let tc = TrainConfig { epochs: 2, batch_size: 12, lr: 0.01, adam: true, seed: 9 };
        model.fit(&train, &tc).unwrap();

        let bytes = model.save_bytes_exact().unwrap();
        let loaded = InceptionTime::load_bytes_exact(&bytes).unwrap();
        // the full-precision shadow parameters survive exactly — this is
        // what lets a resumed training run continue bit-identically
        for ((_, a), (_, b)) in model.store().iter().zip(loaded.store().iter()) {
            assert_eq!(a.bits, b.bits);
            for (x, y) in a.value.data().iter().zip(b.value.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{} differs after exact reload", a.name);
            }
        }
        let x = train.full_batch().unwrap().inputs;
        let p1 = model.predict_proba(&x).unwrap();
        let p2 = loaded.predict_proba(&x).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "inference differs after exact reload");
        }
        // the two formats must not be confusable
        assert!(InceptionTime::load_bytes_exact(&model.save_bytes().unwrap()).is_err());
        assert!(InceptionTime::load_bytes(&bytes).is_err());
    }

    #[test]
    fn multivariate_input_works() {
        let mut rng = seeded(6);
        let mut cfg = tiny_config(4);
        cfg.in_dims = 3;
        let model = InceptionTime::new(cfg, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 3, 24]);
        assert_eq!(model.logits(&x).unwrap().dims(), &[2, 4]);
    }
}

//! The model registry: named, compiled inference plans (f32 or int8).
//!
//! A registered plan is the model's one compiled copy. The server keeps it
//! as the model's record, and every shard slot that hosts the model runs a
//! clone of it, which shares the compiled weights and owns only its scratch.

use crate::{Result, ServeError};
use lightts_models::inception::InceptionTime;
use lightts_models::inference::InferencePlan;
use lightts_models::qinference::QuantizedPlan;

/// Which compiled plan kind a model is served with, chosen per model by
/// [`ModelRegistry::register_as`] / [`ModelRegistry::load_packed_as`].
///
/// * [`PlanKind::F32`]: the [`InferencePlan`] — f32 arithmetic, the same
///   forward `InceptionTime::logits` runs for every evaluation, bitwise
///   identical to the training network's forward in `Mode::Eval`.
/// * [`PlanKind::I8`]: the [`QuantizedPlan`] — i8 weights, integer
///   conv/GEMM, ~4× smaller weight storage; approximate vs f32 within the
///   parity gate of `tests/quantized_parity.rs`, and bitwise reproducible
///   across backends/batch splits in its own right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Full-precision compiled plan.
    F32,
    /// True-int8 compiled plan.
    I8,
}

impl PlanKind {
    /// Stable lower-case name (`"f32"` / `"i8"`), as recorded in bench
    /// output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::F32 => "f32",
            PlanKind::I8 => "i8",
        }
    }
}

/// A compiled plan of either kind, dispatched per batch by the scheduler.
/// `Clone` is what makes replica placement possible: each shard hosting a
/// replica of a model runs its own clone, which shares the compiled weights
/// (immutable, behind an `Arc`) and owns its scratch, so shards never share
/// mutable plan state.
#[derive(Debug, Clone)]
pub(crate) enum AnyPlan {
    F32(InferencePlan),
    I8(QuantizedPlan),
}

impl AnyPlan {
    pub(crate) fn kind(&self) -> PlanKind {
        match self {
            AnyPlan::F32(_) => PlanKind::F32,
            AnyPlan::I8(_) => PlanKind::I8,
        }
    }

    pub(crate) fn sample_len(&self) -> usize {
        match self {
            AnyPlan::F32(p) => p.sample_len(),
            AnyPlan::I8(p) => p.sample_len(),
        }
    }

    pub(crate) fn num_classes(&self) -> usize {
        match self {
            AnyPlan::F32(p) => p.num_classes(),
            AnyPlan::I8(p) => p.num_classes(),
        }
    }

    pub(crate) fn predict_proba_into(
        &mut self,
        inputs: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> lightts_models::Result<()> {
        match self {
            AnyPlan::F32(p) => p.predict_proba_into(inputs, batch, out),
            AnyPlan::I8(p) => p.predict_proba_into(inputs, batch, out),
        }
    }
}

/// One registered model: its name plus the compiled plan.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) plan: AnyPlan,
}

/// A collection of named, compiled models ready to serve.
///
/// Models enter the registry either as packed
/// [`save_bytes`](InceptionTime::save_bytes) exports
/// ([`load_packed`](Self::load_packed)) — the deployment path — or as live
/// [`InceptionTime`] instances ([`register`](Self::register)). Either way
/// they are compiled once at registration time into a tape-free plan: the
/// f32 plan, or the [`PlanKind`] chosen per model via
/// [`register_as`](Self::register_as) / [`load_packed_as`](Self::load_packed_as),
/// so the serving hot path never re-quantizes weights or touches the
/// autodiff tape. f32 and i8 plans can be resident simultaneously; requests
/// are routed by model name as before.
///
/// Compiling a model for a plan kind it cannot support — e.g. an i8 plan
/// for a packed model trained with 16/32-bit quantization metadata — fails
/// here, at registration, with a typed
/// [`ServeError::Model`]`(`[`UnsupportedPlan`](lightts_models::ModelError::UnsupportedPlan)`)`
/// rather than a panic or silent accuracy loss at request time.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    pub(crate) entries: Vec<Entry>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a live model under `name`, compiling it for serving as an
    /// f32 plan.
    ///
    /// Replaces any previous model of the same name.
    pub fn register(&mut self, name: impl Into<String>, model: &InceptionTime) -> Result<()> {
        self.register_as(name, model, PlanKind::F32)
    }

    /// Registers a live model under `name` with an explicit plan kind.
    pub fn register_as(
        &mut self,
        name: impl Into<String>,
        model: &InceptionTime,
        kind: PlanKind,
    ) -> Result<()> {
        let name = name.into();
        if name.is_empty() {
            return Err(ServeError::BadRequest { what: "empty model name".into() });
        }
        let plan = match kind {
            PlanKind::F32 => AnyPlan::F32(model.compile()?),
            PlanKind::I8 => AnyPlan::I8(model.compile_quantized()?),
        };
        self.entries.retain(|e| e.name != name);
        self.entries.push(Entry { name, plan });
        Ok(())
    }

    /// Loads a packed model export (the bytes written by
    /// [`InceptionTime::save_bytes`]) and registers it under `name` as an
    /// f32 plan.
    pub fn load_packed(&mut self, name: impl Into<String>, bytes: &[u8]) -> Result<()> {
        self.load_packed_as(name, bytes, PlanKind::F32)
    }

    /// Loads a packed model export and registers it with an explicit plan
    /// kind. Fails with a typed error (never a panic) both on malformed
    /// bytes and on a model that cannot support `kind`.
    pub fn load_packed_as(
        &mut self,
        name: impl Into<String>,
        bytes: &[u8],
        kind: PlanKind,
    ) -> Result<()> {
        let model = InceptionTime::load_bytes(bytes)?;
        self.register_as(name, &model, kind)
    }

    /// Names of all registered models, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The plan kind a registered model was compiled with.
    pub fn plan_kind(&self, name: &str) -> Option<PlanKind> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.plan.kind())
    }

    /// Whether a model of this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

//! # lightts-serve
//!
//! Batched inference serving for LightTS students.
//!
//! The whole point of LightTS is producing *lightweight* students that can
//! serve predictions on constrained hardware; this crate is the runtime
//! that actually serves them:
//!
//! * [`ModelRegistry`] — loads packed
//!   [`save_bytes`](lightts_models::inception::InceptionTime::save_bytes)
//!   exports (or live models) and compiles each into a tape-free plan of
//!   the [`PlanKind`] chosen per model: the f32
//!   [`InferencePlan`](lightts_models::inference::InferencePlan)
//!   ([`load_packed`](ModelRegistry::load_packed)) or the true-int8
//!   [`QuantizedPlan`](lightts_models::qinference::QuantizedPlan)
//!   ([`load_packed_as`](ModelRegistry::load_packed_as) /
//!   [`register_as`](ModelRegistry::register_as) with [`PlanKind::I8`]).
//!   Both kinds can be resident at once; a model that cannot support the
//!   requested kind (e.g. 16/32-bit quantization metadata asked to serve
//!   i8) is refused at registration with a typed error, never a panic.
//! * [`Server`] — request queues with **dynamic micro-batching**: a shard
//!   runs a queued request as soon as it is free, fusing up to `max_batch`
//!   requests that queued while it was busy into one forward, and the rows
//!   are scattered back to their callers. By default nothing is held for
//!   more arrivals; a positive [`ServeConfig::max_wait`] opts into holding
//!   a partial batch until its oldest request has waited that long. The
//!   scheduler is **sharded** ([`ServeConfig::shards`]): each shard thread
//!   owns its own queues, condvar, and plan clones, models are replicated
//!   across [`ServeConfig::replicas`] shards, and requests are hash-routed
//!   by request id ([`route_replica`]) — one hot model replicated across N
//!   shards scales across cores with no shared lock on the hot path. The
//!   replicas share one compiled copy of each model's weights: a plan
//!   clone owns only its scratch.
//! * [`wire`] / [`net`] — the `LTSP` length-prefixed binary protocol and
//!   its TCP front door ([`Server::serve_net`] + [`NetClient`]): remote
//!   callers get the same admission, batching, deadline, and shed
//!   semantics as in-process ones, rendered as typed status codes, with
//!   probability rows crossing the wire bit-exactly.
//! * [`ServeStats`] — per-request latency and per-batch throughput
//!   counters, exposed as a consistent snapshot (plus per-shard
//!   `serve.shard{i}.*` series in [`Server::metrics`]).
//!
//! ## Robustness
//!
//! The runtime is hardened for unattended operation:
//!
//! * **Admission control** — each model's queue is bounded by
//!   [`ServeConfig::max_queue`]; further submissions are shed with
//!   [`ServeError::Overloaded`] rather than growing memory and latency
//!   without bound.
//! * **Input validation** — wrong shapes and NaN/Inf values are rejected
//!   at [`submit`](ServerHandle::submit) with typed errors
//!   ([`ServeError::BadRequest`], [`ServeError::NonFiniteInput`]) before
//!   they can poison a fused batch.
//! * **Deadlines** —
//!   [`submit_with_deadline`](ServerHandle::submit_with_deadline) attaches
//!   a deadline; the scheduler sheds already-expired requests *before*
//!   spending a forward pass on them, and
//!   [`Pending::wait_timeout`] bounds the caller's wait.
//! * **Panic isolation** — a panic inside a fused forward (kernel bug,
//!   `serve.batch` failpoint) fails only that batch's requests with
//!   [`ServeError::Inference`]; the scheduler recovers — including from
//!   poisoned mutexes — and keeps serving, with bitwise-identical results
//!   for subsequent requests. A panic escaping a shard's *loop* (the
//!   `serve.shard` failpoint) kills only that shard: its queued requests
//!   are answered with a shard-tagged [`ServeError::SchedulerDied`], and
//!   sibling shards keep serving bitwise-identically.
//! * **Self-healing** — a supervisor thread detects shard death and
//!   **respawns** the shard with fresh clones of the registered plans
//!   (handles on the live weights, with new scratch), after proving the
//!   reborn shard answers a probe input bitwise identically to its
//!   pre-death self — at most [`ServeConfig::restart_budget`] times per
//!   rolling [`ServeConfig::restart_window`], after which the shard is
//!   permanently failed and `/healthz` reports `degraded`. While a shard
//!   is down, submissions **reroute deterministically** to surviving
//!   replicas ([`route_replica_masked`]; counted in `serve.reroutes`).
//! * **Retry with backoff** — [`RetryPolicy`] drives
//!   [`ServerHandle::predict_with_retry`] and
//!   [`NetClient::predict_with_retry`]: only the retryable status class
//!   (`OVERLOADED`, `UNAVAILABLE`) is retried, with capped exponential
//!   backoff, deterministic per-request jitter, and a hard overall
//!   deadline budget that retries can never exceed.
//! * **Circuit breakers** — per-model breakers ([`ServeConfig::circuit_threshold`],
//!   [`ServeConfig::circuit_cooldown`]) open after K consecutive failed
//!   batches and shed fast with [`ServeError::CircuitOpen`] (wire status
//!   `CIRCUIT_OPEN`) until a half-open probe succeeds — a poisoned model
//!   cannot keep burning scheduler time.
//! * **Observability** — sheds, contained panics, reroutes, restarts, and
//!   breaker state are counted (`serve.shed_overload`,
//!   `serve.shed_deadline`, `serve.shed_circuit`, `serve.batch_panics`,
//!   `serve.reroutes`, `serve.restarts`, `serve.shard{i}.restarts`,
//!   `serve.shards_failed`, `serve.circuit{m}.state`,
//!   `serve.circuit_opens`) in [`Server::metrics`], alongside per-shard
//!   queue-depth/batch/latency series and `serve.shard.batch` trace
//!   spans; `/healthz` reports `ok`/`recovering`/`degraded` with restart
//!   counts and the last restart timestamp.
//!
//! ## Threading model
//!
//! N scheduler shard threads each own *clones* of the compiled plans
//! placed on them. A clone shares the immutable compiled weights (one copy
//! per model, behind an `Arc`) and owns its scratch buffers — requests are
//! handed over through the owning shard's mutex-protected queues, so plans
//! need no internal locking and shards never contend on one lock. The
//! shard count defaults to available parallelism clamped to the model count
//! (overridable via [`ServeConfig::shards`] or `LIGHTTS_SERVE_SHARDS`).
//! The fused forward runs on the shard's own thread, like every tensor
//! kernel runs on its caller's thread. Callers block on a one-shot channel (or poll a
//! [`Pending`] handle for pipelined submission); remote callers go
//! through the [`net`] front door's per-connection reader/writer pair.
//!
//! ## Determinism contract
//!
//! Responses are **bitwise identical** to calling
//! [`predict_proba`](lightts_models::Classifier::predict_proba) on each
//! sample alone, no matter which micro-batches the scheduler happens to
//! form: every kernel in the inference path computes each output row with a
//! batch-size-independent accumulation order (see
//! [`lightts_models::inference`]). Sharding preserves this whole-server:
//! the route is a pure function of the request id, and every replica is a
//! clone of the same compiled plan, sharing its weights, so shard counts 1
//! and N answer bitwise identically — and so does the wire path, which
//! moves `f32` bit patterns, never text. Batching is therefore purely a
//! throughput optimization — it can never change a prediction. The i8 plan
//! upholds the same batch-size invariance (activation quantizers are
//! fitted per sample, and integer accumulation is exact), and is
//! additionally bitwise identical across SIMD backends; its predictions
//! are *approximate with respect to the f32 plan*, within the parity gate
//! of `tests/quantized_parity.rs` (see `docs/NUMERICS.md`, "Quantized
//! inference").
//!
//! ```no_run
//! use lightts_serve::{ModelRegistry, ServeConfig, Server};
//!
//! # fn demo(packed: &[u8], series: Vec<f32>) -> Result<(), lightts_serve::ServeError> {
//! let mut registry = ModelRegistry::new();
//! registry.load_packed("student", packed)?;
//! let server = Server::start(registry, ServeConfig::default());
//! let probs = server.handle().predict("student", series)?;
//! println!("class probabilities: {probs:?}");
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod breaker;
mod error;
pub mod net;
mod registry;
mod retry;
mod server;
mod stats;
mod supervisor;
pub mod wire;

pub use error::ServeError;
pub use net::{NetClient, NetError, NetServer};
pub use registry::{ModelRegistry, PlanKind};
pub use retry::{RetryPolicy, MAX_BACKOFF};
pub use server::{
    route_replica, route_replica_masked, Pending, ServeConfig, Server, ServerHandle,
    DEFAULT_RESTART_BUDGET, MAX_SHARDS,
};
pub use stats::ServeStats;
pub use wire::Status;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

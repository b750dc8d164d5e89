//! # lightts-obs
//!
//! The observability layer of the LightTS reproduction: a **metrics
//! registry** (named counters, gauges, and log-bucketed histograms with
//! lock-free hot paths), **tracing spans** with RAII timing, and
//! **structured JSONL event export** — all with zero external
//! dependencies, so every crate in the workspace can depend on it.
//!
//! ## Metrics
//!
//! ```
//! use lightts_obs as obs;
//!
//! let reg = obs::Registry::new();         // or obs::global()
//! reg.counter("serve.requests").add(3);
//! reg.histogram("serve.latency_ns").record(1_500_000);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("serve.requests"), Some(3));
//! println!("{}", snap.render_prometheus()); // text exposition
//! println!("{}", snap.render_json());       // machine-readable dump
//! ```
//!
//! ## Spans and events
//!
//! ```
//! use lightts_obs as obs;
//! {
//!     let mut sp = obs::span!("trainer.epoch", { epoch: 3usize });
//!     // … work …
//!     sp.record("loss", 0.42f32);
//! } // drop records duration into `span.trainer.epoch` and emits JSONL
//! obs::event!("bench.cell", { dataset: "Adiac", acc: 0.81f64 });
//! ```
//!
//! Emission is off by default. Set `LIGHTTS_OBS=1` (stderr), a file path,
//! or `memory`, or call [`set_sink`] programmatically. When disabled, a
//! span or event costs one relaxed atomic load — field expressions are not
//! evaluated and nothing allocates ([`events_emitted`] lets tests prove
//! it).
//!
//! ## JSONL event schema
//!
//! One JSON object per line:
//!
//! ```json
//! {"ts_us":1754500000000000,"kind":"span","path":"aed.epoch",
//!  "fields":{"dataset":"Adiac","trial":3,"loss":0.42},"dur_us":15310.2}
//! ```
//!
//! | key | type | presence |
//! |---|---|---|
//! | `ts_us` | unsigned number — µs since the UNIX epoch at emission | always |
//! | `kind` | `"span"` or `"event"` | always |
//! | `path` | non-empty dotted string, e.g. `"mobo.trial"` | always |
//! | `fields` | object of string / number / bool / null values | always (may be empty) |
//! | `dur_us` | wall-clock duration in µs | spans only |
//!
//! No other top-level keys are emitted; [`jsonl::validate_event_line`]
//! enforces exactly this contract (CI runs it over a real experiment's
//! output via the `obs_validate` binary). Serving spans additionally carry
//! a numeric `trace_id` field linking every stage of one request;
//! [`jsonl::validate_trace_linkage`] checks that contract — see [`trace`].
//!
//! ## Live telemetry
//!
//! Three further modules turn a running process into something you can
//! *look at* without restarting it:
//!
//! * [`http`] — a zero-dependency `std::net` HTTP/1.1 server exposing
//!   `GET /metrics` (Prometheus text, OpenMetrics-with-exemplars via
//!   `Accept`), `/metrics.json`, `/healthz`, `/tracez`, and `/profilez`.
//!   One call: `obs::http::spawn(registry, "127.0.0.1:9464")`.
//! * [`trace`] — per-request [`TraceCtx`] (48-bit ids,
//!   anchored timestamps) and the `/tracez` span ring buffer.
//! * [`prof`] — an always-compiled hierarchical profiler
//!   (`LIGHTTS_PROF=1`): RAII [`prof::scope`]s aggregate into a global
//!   call tree rendered as flamegraph-ready collapsed stacks
//!   ([`prof::render_collapsed`], `GET /profilez`).
//!
//! ## Fault tolerance
//!
//! Two further subsystems share the same "one relaxed atomic load when
//! off" discipline:
//!
//! * [`failpoint`] — deterministic fault injection
//!   (`LIGHTTS_FAILPOINTS=serve.batch=panic@3,mobo.trial=err@5`), used by
//!   the chaos tests to prove shedding and recovery paths fire.
//! * [`checkpoint`] — atomic write-temp→fsync→rename snapshot files and
//!   the checksummed named-section container every stored byte of the
//!   workspace is framed in: model exports, optimizer state, and the
//!   crash-safe distillation and MOBO checkpoints (`checkpoint.writes` /
//!   `checkpoint.resumes` counters in the global registry).
//!
//! ## Environment variables (workspace index)
//!
//! Every environment variable the workspace reads, in one place. Each is
//! read **once** at first use and cached; programmatic setters take
//! precedence over the environment. None of the observability or serving
//! knobs can change numerical results — only `LIGHTTS_SIMD` can, and only
//! within the FMA class documented in `docs/NUMERICS.md`.
//!
//! | Variable | Crate | Values | Effect |
//! |---|---|---|---|
//! | `LIGHTTS_OBS` | `lightts-obs` | unset/`0` (off), `1` (stderr), a file path, `memory` | span/event JSONL emission target; metrics are always on |
//! | `LIGHTTS_FAILPOINTS` | `lightts-obs` | `name=action[@N\|%p]`, action `panic`/`err`, comma-separated | arms deterministic fault injection at named points (`serve.batch`, `serve.shard`, `trainer.epoch`, `mobo.trial`, `checkpoint.write`); `@N` fires once on the N-th hit, `%p` fires each hit with probability p (deterministic under the seed) |
//! | `LIGHTTS_FAILPOINT_SEED` | `lightts-obs` | u64 (default `0x5EED`) | seed for `%p` probabilistic failpoint triggers — a fixed seed replays the exact kill schedule (CI chaos soak); overridden by [`failpoint::set_failpoint_seed`] |
//! | `LIGHTTS_SIMD` | `lightts-tensor` (`simd`) | `avx2` / `scalar` (case-insensitive; any other value, `avx512` included, is ignored) | forces the SIMD backend; `avx2` keeps the 256-bit tiles on a host whose detection picks AVX-512 (both give the same bits); a request the CPU cannot run (`avx2` without AVX2+FMA) runs scalar; overridden by `set_simd_backend`; see `docs/NUMERICS.md` |
//! | `LIGHTTS_BENCH_SMOKE` | `lightts-bench` | `1` | shrinks every criterion bench to a CI-sized compile-rot check |
//! | `LIGHTTS_PROF` | `lightts-obs` (`prof`) | unset/`0`/`off`/`false` (off), anything else (on) | hierarchical profiler behind the permanent kernel/serve hooks; `GET /profilez` renders collapsed stacks; never changes bits |
//! | `LIGHTTS_TELEMETRY_ADDR` | `lightts-obs` (`http`) | `host:port`, e.g. `127.0.0.1:9464` | the experiment binaries spawn the telemetry HTTP server here at startup ([`http::spawn_from_env`]) |
//! | `LIGHTTS_SERVE_SHARDS` | `lightts-serve`, `lightts-bench` | positive integer | scheduler shard count when `ServeConfig::shards` is 0 (read at each server start, capped at 64); without it the count defaults to available parallelism clamped to the model count; `bench_serve_cluster` sweeps only this count when set; never changes bits — routing is deterministic and every replica answers identically |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod failpoint;
pub mod http;
pub mod jsonl;
mod metrics;
pub mod prof;
mod span;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, global, Counter, Exemplar, Gauge, Histogram,
    HistogramSnapshot, Metric, MetricSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use span::{
    emit_event, emit_span_at, enabled, events_emitted, init_from_env_or, json_string, set_sink,
    take_memory, FieldValue, Fields, SinkTarget, Span,
};
pub use trace::TraceCtx;

/// The SplitMix64 mixer: adds the golden-ratio increment
/// `0x9E37_79B9_7F4A_7C15` to `z` and finalizes the sum, so nearby inputs
/// give decorrelated outputs. Every deterministic hash of the workspace
/// (seeds, trace ids, failpoint schedules, routing, retry jitter) calls it.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

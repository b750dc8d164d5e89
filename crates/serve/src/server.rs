//! The serving scheduler: request queues with dynamic micro-batching,
//! admission control, deadlines, panic isolation — sharded N ways.
//!
//! ## Sharding
//!
//! The server runs [`ServeConfig::shards`] scheduler threads. Each shard
//! owns its own bounded queues, condvar, and a clone of each compiled plan
//! placed on it. A clone shares the model's one compiled copy of the
//! weights and owns only its scratch, so shards share no mutable state and
//! never contend on one lock. Models are placed on
//! [`ServeConfig::replicas`] consecutive shards (round-robin from the
//! model's index); a request is routed to one replica by hashing its
//! request id ([`route_replica`]) — a pure function of the id, so the
//! same request id always lands on the same shard and the per-shard
//! determinism contract composes into a whole-server one:
//! the route is deterministic, and every replica answers bitwise
//! identically (clones of one plan, sharing its weights), so *any* route
//! answers bitwise identically.
//!
//! Fault isolation is shard-local: a panic escaping one shard's loop kills
//! only that shard — its queued requests are drained with
//! [`ServeError::SchedulerDied`] naming the shard, later submissions
//! routed to it reroute to live replicas ([`route_replica_masked`]) while
//! the supervisor ([`crate::supervisor`]) respawns it, and sibling shards
//! keep serving. Per-model circuit breakers ([`crate::breaker`]) shed
//! requests for a model whose forwards keep failing, independent of shard
//! liveness.

use crate::breaker::Breaker;
use crate::registry::{AnyPlan, ModelRegistry};
use crate::retry::RetryPolicy;
use crate::stats::{ServeStats, StatsInner};
use crate::supervisor;
use crate::{Result, ServeError};
use lightts_obs as obs;
use obs::{splitmix64, TraceCtx};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Hard cap on the number of scheduler shards (a runaway-config backstop;
/// each shard is an OS thread plus the scratch of its plan clones).
pub const MAX_SHARDS: usize = 64;

/// Default shard restart budget (respawns per rolling window), the
/// [`ServeConfig::default`] value of [`ServeConfig::restart_budget`].
pub const DEFAULT_RESTART_BUDGET: usize = 3;

/// Micro-batching and admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Fuse at most this many requests into one forward pass.
    pub max_batch: usize,
    /// How long a partial batch is held for more arrivals before it runs.
    ///
    /// The default, [`Duration::ZERO`], holds nothing: a shard runs a
    /// queued request as soon as it is free, taking up to
    /// [`max_batch`](Self::max_batch) requests, so batches form only from
    /// requests that queued while the shard was busy. Both plan kinds
    /// compute each sample's row on its own, so a wider batch saves little
    /// forward time and a hold would mostly add latency. A positive value
    /// is an opt-in hold: a partial batch runs once its oldest request has
    /// waited this long, or sooner when `max_batch` requests are queued
    /// or the server shuts down.
    pub max_wait: Duration,
    /// Admission control: at most this many requests may be queued per
    /// model replica; further submissions are shed with
    /// [`ServeError::Overloaded`] until the queue drains (a 0 is treated
    /// as 1). Bounding the queue keeps worst-case memory and queueing
    /// latency finite under overload — shedding early is cheaper than
    /// answering late.
    pub max_queue: usize,
    /// Number of scheduler shards (capped at [`MAX_SHARDS`]).
    ///
    /// `0` (the default) resolves at [`Server::start`]: the
    /// `LIGHTTS_SERVE_SHARDS` environment variable if set, else the host's
    /// available parallelism clamped to the registry's model count (one
    /// model cannot use more shards than its replicas by default — see
    /// [`replicas`](Self::replicas)). Explicit values (config or env) are
    /// *not* clamped to the model count: replicating one hot model across
    /// many shards is exactly the multi-core throughput play.
    pub shards: usize,
    /// Replicas per model: this many consecutive shards each run a clone of
    /// the model's compiled plan (sharing its weights), and its requests
    /// are hash-routed among them.
    /// `0` (the default) replicates on every shard. Values are clamped to
    /// the shard count.
    pub replicas: usize,
    /// How many times the supervisor may respawn one shard within
    /// [`restart_window`](Self::restart_window) before marking it
    /// **permanently failed** (no further respawns; submissions reroute to
    /// surviving replicas and `/healthz` reports `degraded`).
    ///
    /// Defaults to [`DEFAULT_RESTART_BUDGET`]. `0` disables respawn
    /// entirely — a dead shard stays dead, as in the pre-supervisor
    /// behaviour.
    pub restart_budget: usize,
    /// The rolling window the restart budget is counted over.
    pub restart_window: Duration,
    /// Circuit breaker: consecutive *failed batches* (contained panics or
    /// model errors from the fused forward) that open a model's circuit,
    /// shedding its submissions with [`ServeError::CircuitOpen`] until a
    /// half-open probe succeeds. `0` disables the breakers.
    pub circuit_threshold: usize,
    /// How long an open circuit sheds before admitting one half-open
    /// probe.
    pub circuit_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            max_wait: Duration::ZERO,
            max_queue: 1024,
            shards: 0,
            replicas: 0,
            restart_budget: DEFAULT_RESTART_BUDGET,
            restart_window: Duration::from_secs(60),
            circuit_threshold: 8,
            circuit_cooldown: Duration::from_millis(250),
        }
    }
}

/// Picks which of a model's `replicas` a request id routes to.
///
/// A pure, total function: any `request_id` maps to a replica index
/// `< replicas.max(1)`, the same one every time, on every server with the
/// same replica count — the property the routing proptest pins. The id is
/// mixed through splitmix64 first so sequential ids (a counter-assigning
/// client) still spread across replicas instead of all landing on
/// `id % replicas`'s bias pattern.
pub fn route_replica(request_id: u64, replicas: usize) -> usize {
    (splitmix64(request_id) % replicas.max(1) as u64) as usize
}

/// Liveness-masked routing: picks which of a model's replicas a request
/// id routes to, considering only replicas whose `live` flag is set.
/// `None` when no replica is live.
///
/// Deterministic in `(request_id, live)`: the same id under the same mask
/// always picks the same replica — so a *retry* of a request whose
/// primary shard died lands on one deterministic sibling, not a random
/// one. When every replica is live this agrees exactly with
/// [`route_replica`] (the routing proptest pins both properties), so
/// masked routing changes nothing — neither placement nor bits — on a
/// healthy server.
pub fn route_replica_masked(request_id: u64, live: &[bool]) -> Option<usize> {
    let n = live.iter().filter(|&&l| l).count();
    if n == 0 {
        return None;
    }
    let k = (splitmix64(request_id) % n as u64) as usize;
    live.iter().enumerate().filter(|&(_, &l)| l).nth(k).map(|(i, _)| i)
}

/// Reads the `LIGHTTS_SERVE_SHARDS` override (ignored unless a positive
/// integer).
fn env_shards() -> Option<usize> {
    std::env::var("LIGHTTS_SERVE_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Resolves the shard count: explicit config wins, then the environment
/// knob, then available parallelism clamped to the model count.
fn resolve_shards(cfg_shards: usize, nmodels: usize) -> usize {
    let n = if cfg_shards > 0 {
        cfg_shards
    } else if let Some(n) = env_shards() {
        n
    } else {
        let par = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        par.min(nmodels.max(1))
    };
    n.clamp(1, MAX_SHARDS)
}

/// Computes replica placement: model `m` goes on shards
/// `(m + k) % nshards` for `k in 0..replicas`.
///
/// Returns `(slots, routes)`: `slots[s]` lists the model index behind each
/// of shard `s`'s local queue slots, and `routes[m]` lists model `m`'s
/// `(shard, slot)` replicas in route order.
#[allow(clippy::type_complexity)]
fn placement(
    nmodels: usize,
    nshards: usize,
    replicas: usize,
) -> (Vec<Vec<usize>>, Vec<Vec<(usize, usize)>>) {
    let mut slots: Vec<Vec<usize>> = vec![Vec::new(); nshards];
    let mut routes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nmodels];
    for (m, route) in routes.iter_mut().enumerate() {
        for k in 0..replicas {
            let s = (m + k) % nshards;
            route.push((s, slots[s].len()));
            slots[s].push(m);
        }
    }
    (slots, routes)
}

/// One queued prediction request.
pub(crate) struct Request {
    input: Vec<f32>,
    /// Trace context minted at submission: the request's process-unique
    /// `trace_id` plus its submit timestamp in both clock domains. The
    /// monotonic anchor doubles as the enqueue instant for batching
    /// (`max_wait`) and latency accounting.
    trace: TraceCtx,
    /// Absolute deadline; the scheduler sheds the request (with
    /// [`ServeError::DeadlineExceeded`]) instead of running inference for
    /// it once this has passed.
    deadline: Option<Instant>,
    tx: mpsc::Sender<Result<Vec<f32>>>,
}

/// One registered model: its name, its compiled plan and its placement.
#[derive(Debug)]
pub(crate) struct ModelInfo {
    pub(crate) name: String,
    /// The registered plan, the model's one compiled copy. It never runs a
    /// forward itself: every shard slot hosting the model runs a clone of
    /// it, made at [`Server::start`] and again at each respawn.
    pub(crate) plan: AnyPlan,
    /// The model's replicas, in route order: `(shard, slot)` pairs.
    pub(crate) routes: Vec<(usize, usize)>,
}

/// Queue state guarded by one shard's mutex.
pub(crate) struct ShardState {
    /// One FIFO per local slot, indexed like `Shard::slot_models`.
    pub(crate) queues: Vec<VecDeque<Request>>,
    pub(crate) shutdown: bool,
    /// Set by the shard's drop guard when its thread exits *without* a
    /// clean shutdown: submissions reroute (or fail fast with
    /// [`ServeError::SchedulerDied`]) instead of queueing forever.
    /// Cleared by the supervisor when it respawns the shard.
    pub(crate) dead: bool,
}

/// Routing phase of a shard, stored in [`Shard::phase`]. Distinct from
/// the `alive` bit: `alive` answers "is the thread running its loop right
/// now" (the `/healthz` signal), `phase` answers "should the router send
/// requests here".
pub(crate) const PHASE_LIVE: u8 = 0;
/// The shard died uncleanly; the supervisor has been notified and a
/// respawn is pending. Routing masks the shard out.
pub(crate) const PHASE_RESTARTING: u8 = 1;
/// The shard exhausted its restart budget (or a respawn failed
/// verification) and is permanently failed. Routing masks it out forever;
/// `/healthz` reports `degraded`.
pub(crate) const PHASE_FAILED: u8 = 2;

/// One scheduler shard: its queues, wakeup, and placement.
pub(crate) struct Shard {
    pub(crate) state: Mutex<ShardState>,
    pub(crate) cv: Condvar,
    /// The model index behind each local queue slot.
    pub(crate) slot_models: Vec<usize>,
    /// `true` while the shard thread runs its loop; flipped by a drop
    /// guard on any exit path, set back by the supervisor on respawn.
    pub(crate) alive: AtomicBool,
    /// Routing phase: one of [`PHASE_LIVE`] / [`PHASE_RESTARTING`] /
    /// [`PHASE_FAILED`].
    pub(crate) phase: AtomicU8,
}

impl Shard {
    /// Whether the router may send requests to this shard.
    pub(crate) fn routable(&self) -> bool {
        self.phase.load(Ordering::Relaxed) == PHASE_LIVE
    }
}

/// State shared between caller handles, the scheduler shards, and the
/// supervisor.
pub(crate) struct Shared {
    pub(crate) shards: Vec<Shard>,
    pub(crate) models: Vec<ModelInfo>,
    pub(crate) stats: StatsInner,
    pub(crate) cfg: ServeConfig,
    /// Per-model circuit breakers, indexed like `models`.
    pub(crate) breakers: Vec<Breaker>,
    /// Per-model golden probe rows (`f32::to_bits` of the probability
    /// row for [`supervisor::probe_input`]), computed once at start. A
    /// respawned shard's fresh plan clones must reproduce these
    /// **bitwise** or the shard is failed instead of revived.
    pub(crate) probe_golden: Vec<Vec<u32>>,
    /// Shard thread handles, shared with the supervisor so it can join a
    /// dead shard before respawning it. `None` while a slot has no
    /// (living or joinable) thread.
    pub(crate) threads: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// The supervisor's death-notice channel. `AliveGuard` sends the dying
    /// shard's index here; dropped (→ `None`) at shutdown, which is what
    /// stops the supervisor thread.
    pub(crate) supervisor_tx: Mutex<Option<mpsc::Sender<usize>>>,
    /// Monotonic anchor for breaker cooldowns and restart-window
    /// arithmetic.
    pub(crate) started: Instant,
    /// Unix-epoch µs of the most recent successful shard respawn (0 =
    /// never); surfaced in `/healthz` as `last_restart_us`.
    pub(crate) last_restart_us: AtomicU64,
}

impl Shared {
    /// Fresh clones of the plans behind shard `si`'s slots, in slot order:
    /// each shares its model's compiled weights and starts with empty
    /// scratch, so no weights are copied.
    pub(crate) fn plan_clones(&self, si: usize) -> Vec<AnyPlan> {
        self.shards[si].slot_models.iter().map(|&m| self.models[m].plan.clone()).collect()
    }
}

/// Microseconds since the server started (the monotonic clock every
/// breaker/restart decision uses).
pub(crate) fn elapsed_us(shared: &Shared) -> u64 {
    shared.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Unix-epoch µs now (for the human-facing restart timestamp only; no
/// scheduling decision reads the wall clock).
pub(crate) fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64)
}

/// Locks one shard's state, recovering from mutex poisoning.
///
/// The queue invariants are simple enough (a `VecDeque` push/drain is
/// never observable half-done) that a panic elsewhere while the lock was
/// held cannot leave the state torn — so a poisoned mutex is recovered
/// with [`PoisonError::into_inner`] rather than cascading the panic into
/// every submitting thread and the shard.
pub(crate) fn lock_state(shard: &Shard) -> MutexGuard<'_, ShardState> {
    shard.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running serving instance.
///
/// Owns the scheduler shard threads; dropping (or calling
/// [`shutdown`](Self::shutdown)) drains the queues — every
/// already-accepted request is still answered — then stops the threads,
/// and only then retires any attached network front doors
/// ([`serve_net`](Self::serve_net)), so in-flight remote requests see
/// their replies (or a typed `SHUTDOWN` status), never a closed socket.
pub struct Server {
    shared: Arc<Shared>,
    /// The supervisor thread ([`crate::supervisor`]): respawns dead shards
    /// until their restart budget runs out. Joined first on shutdown so no
    /// respawn races the drain.
    supervisor: Option<JoinHandle<()>>,
    /// Network front doors attached via [`serve_net`](Self::serve_net);
    /// retired *after* the shard drain on shutdown.
    pub(crate) doors: Mutex<Vec<Arc<crate::net::DoorInner>>>,
}

/// A cloneable, `Send` handle for submitting requests to a [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

/// An in-flight prediction: redeem with [`wait`](Self::wait) or
/// [`wait_timeout`](Self::wait_timeout).
///
/// Submitting many [`Pending`]s before waiting on any is how a
/// single-threaded client lets the scheduler form large fused batches.
pub struct Pending {
    rx: mpsc::Receiver<Result<Vec<f32>>>,
    /// The shard the request was enqueued on, so a disconnected reply
    /// channel can still name the shard that died holding it.
    shard: usize,
}

impl Pending {
    /// The shard this request was enqueued on (after any liveness-masked
    /// rerouting).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Blocks until the prediction is available.
    ///
    /// Returns the class-probability row for the submitted sample. If the
    /// reply channel disconnects without an answer — the owning shard's
    /// scheduler thread died — this is [`ServeError::SchedulerDied`]
    /// naming that shard, *not* a clean [`ServeError::Shutdown`] (shutdown
    /// drains and answers every accepted request).
    pub fn wait(self) -> Result<Vec<f32>> {
        self.rx.recv().unwrap_or(Err(ServeError::SchedulerDied { shard: Some(self.shard) }))
    }

    /// Blocks for at most `timeout` for the prediction.
    ///
    /// [`ServeError::DeadlineExceeded`] if no reply arrived in time (the
    /// request may still be answered later; the reply is discarded),
    /// [`ServeError::SchedulerDied`] naming the owning shard if the reply
    /// channel disconnected.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<f32>> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
            Err(RecvTimeoutError::Disconnected) => {
                Err(ServeError::SchedulerDied { shard: Some(self.shard) })
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn disconnected(shard: usize) -> Pending {
        let (_, rx) = mpsc::channel();
        Pending { rx, shard }
    }
}

impl Server {
    /// Starts a server over the given registry with the given batching
    /// policy (a `max_batch` or `max_queue` of 0 is treated as 1; see
    /// [`ServeConfig::shards`] for how a 0 shard count resolves).
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Server {
        let nmodels = registry.entries.len();
        let nshards = resolve_shards(cfg.shards, nmodels);
        let cfg = ServeConfig {
            max_batch: cfg.max_batch.max(1),
            max_queue: cfg.max_queue.max(1),
            shards: nshards,
            replicas: if cfg.replicas == 0 { nshards } else { cfg.replicas.min(nshards) },
            ..cfg
        };
        let (slots, routes) = placement(nmodels, nshards, cfg.replicas);
        let models: Vec<ModelInfo> = registry
            .entries
            .into_iter()
            .zip(routes)
            .map(|(e, routes)| ModelInfo { name: e.name, plan: e.plan, routes })
            .collect();
        // Golden probe rows, computed before any shard serves: the bitwise
        // identity a respawned shard's clones must reproduce before the
        // supervisor lets them serve.
        let probe_golden: Vec<Vec<u32>> = models
            .iter()
            .enumerate()
            .map(|(m, info)| supervisor::probe_bits(&mut info.plan.clone(), m).unwrap_or_default())
            .collect();
        let shards: Vec<Shard> = slots
            .iter()
            .map(|slot_models| Shard {
                state: Mutex::new(ShardState {
                    queues: slot_models.iter().map(|_| VecDeque::new()).collect(),
                    shutdown: false,
                    dead: false,
                }),
                cv: Condvar::new(),
                slot_models: slot_models.clone(),
                alive: AtomicBool::new(true),
                phase: AtomicU8::new(PHASE_LIVE),
            })
            .collect();
        let stats = StatsInner::new(nshards, nmodels);
        let breakers = (0..nmodels)
            .map(|m| {
                Breaker::new(
                    cfg.circuit_threshold,
                    cfg.circuit_cooldown,
                    stats.circuit_gauge(m),
                    stats.circuit_opens(),
                )
            })
            .collect();
        let (sup_tx, sup_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            shards,
            models,
            stats,
            cfg,
            breakers,
            probe_golden,
            threads: Mutex::new((0..nshards).map(|_| None).collect()),
            supervisor_tx: Mutex::new(Some(sup_tx)),
            started: Instant::now(),
            last_restart_us: AtomicU64::new(0),
        });
        {
            let mut threads = shared.threads.lock().unwrap_or_else(PoisonError::into_inner);
            for (si, thread) in threads.iter_mut().enumerate() {
                *thread = Some(spawn_shard(&shared, si, shared.plan_clones(si)));
            }
        }
        let supervisor = Some(supervisor::spawn(Arc::clone(&shared), sup_rx));
        Server { shared, supervisor, doors: Mutex::new(Vec::new()) }
    }

    /// A handle for submitting requests (cloneable, usable from any
    /// thread).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// The per-server metrics registry backing [`stats`](Self::stats).
    ///
    /// Besides the aggregate request/batch/latency series, the registry
    /// carries the per-shard topology (`serve.shard{i}.queue_depth`,
    /// `.requests`, `.batches`, `.latency_ns`, `.alive`), the tensor
    /// buffer-pool gauges (`serve.pool_high_water_bytes`,
    /// `serve.pool_hits`, `serve.pool_misses`), refreshed after every fused
    /// batch — a deployment watches `pool_misses` stay flat to confirm the
    /// hot path is allocation-free and `pool_high_water_bytes` for its
    /// steady-state scratch footprint — and the robustness counters
    /// (`serve.shed_overload`, `serve.shed_deadline`,
    /// `serve.batch_panics`), which a deployment alerts on: sheds mean
    /// sustained overload, panics mean a model or kernel bug being
    /// contained.
    ///
    /// Snapshot it for Prometheus/JSON exposition of the raw
    /// `serve.*` counters, gauges, and histograms:
    ///
    /// ```ignore
    /// println!("{}", server.metrics().snapshot().render_prometheus());
    /// ```
    pub fn metrics(&self) -> Arc<obs::Registry> {
        self.shared.stats.registry()
    }

    /// Number of scheduler shards this server runs.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Number of shards whose scheduler thread is still running its loop.
    pub fn shards_alive(&self) -> usize {
        self.shared.shards.iter().filter(|s| s.alive.load(Ordering::Relaxed)).count()
    }

    /// Whether any scheduler shard is still running (the `/healthz`
    /// liveness signal — the server is down only when *all* shards are).
    pub fn scheduler_alive(&self) -> bool {
        self.shards_alive() > 0
    }

    /// Spawns the telemetry HTTP server ([`lightts_obs::http`]) over this
    /// server's metrics registry, bound to `addr`.
    ///
    /// `GET /metrics` scrapes the per-server `serve.*` series (including
    /// the per-shard `serve.shard{i}.*` topology and the per-stage
    /// histograms with trace-id exemplars), `GET /healthz` reports process
    /// liveness *and* recovery state — the body carries
    /// `shards_alive`/`shards_total`/`restarts`/`shards_failed`/
    /// `last_restart_us`, the `status` string refines to `"recovering"`
    /// while a shard respawn is pending and `"degraded"` once any shard is
    /// permanently failed, and the HTTP status degrades to `503` only once
    /// **all** shards are dead — `GET /tracez` serves the recent-span
    /// ring, and `GET /profilez` the collapsed `LIGHTTS_PROF` call tree.
    /// The returned server stops when dropped — keep the handle alive
    /// alongside the [`Server`]:
    ///
    /// ```ignore
    /// let server = Server::start(registry, ServeConfig::default());
    /// let _telemetry = server.serve_telemetry("127.0.0.1:9464")?;
    /// ```
    pub fn serve_telemetry(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<obs::http::TelemetryServer> {
        let shared = Arc::clone(&self.shared);
        let detail = Arc::clone(&self.shared);
        let status = Arc::clone(&self.shared);
        obs::http::TelemetryBuilder::new(self.shared.stats.registry())
            .health(move || shared.shards.iter().any(|s| s.alive.load(Ordering::Relaxed)))
            .health_status(move || {
                let phase =
                    |p: u8| status.shards.iter().any(|s| s.phase.load(Ordering::Relaxed) == p);
                if phase(PHASE_FAILED) {
                    "degraded".to_string()
                } else if phase(PHASE_RESTARTING) {
                    "recovering".to_string()
                } else {
                    "ok".to_string()
                }
            })
            .health_detail(move || {
                let alive =
                    detail.shards.iter().filter(|s| s.alive.load(Ordering::Relaxed)).count();
                let stats = detail.stats.snapshot();
                vec![
                    ("shards_alive".to_string(), alive as i64),
                    ("shards_total".to_string(), detail.shards.len() as i64),
                    ("restarts".to_string(), stats.restarts.min(i64::MAX as u64) as i64),
                    ("shards_failed".to_string(), stats.shards_failed as i64),
                    (
                        "last_restart_us".to_string(),
                        detail.last_restart_us.load(Ordering::Relaxed).min(i64::MAX as u64) as i64,
                    ),
                ]
            })
            .spawn(addr)
    }

    /// Drains every accepted request, stops the shard threads, then
    /// retires any attached network front doors.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // 1. Retire the supervisor first so no respawn races the drain:
        //    dropping the death-notice sender ends its recv loop (any
        //    respawn already in flight finishes and its thread handle
        //    lands in `Shared::threads`, which step 3 joins).
        drop(self.shared.supervisor_tx.lock().unwrap_or_else(PoisonError::into_inner).take());
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        // 2. Flag every shard for shutdown. New submissions fail with
        //    `ServeError::Shutdown` from here on (remote clients see a
        //    typed SHUTDOWN status frame, not a closed socket — the front
        //    doors are still up).
        for shard in &self.shared.shards {
            let mut st = lock_state(shard);
            st.shutdown = true;
            drop(st);
            shard.cv.notify_all();
        }
        // 3. Join the shard threads: the drain answers every request that
        //    was accepted before the flag flipped.
        let handles: Vec<JoinHandle<()>> = {
            let mut threads = self.shared.threads.lock().unwrap_or_else(PoisonError::into_inner);
            threads.iter_mut().filter_map(Option::take).collect()
        };
        for t in handles {
            let _ = t.join();
        }
        // 4. Only now retire the front doors: connection writers flush
        //    whatever replies the drain produced before the sockets close.
        let doors: Vec<_> = {
            let mut guard = self.doors.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for d in doors {
            d.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ServerHandle {
    /// Enqueues one sample (length `in_dims · in_len` of the named model)
    /// and returns a [`Pending`] redeemable for its probability row. The
    /// request is routed by its freshly minted trace id; to control the
    /// route (e.g. to replay a remote request id) use
    /// [`submit_keyed`](Self::submit_keyed).
    ///
    /// Admission control happens here: unknown models, wrong shapes, and
    /// non-finite values are rejected with typed errors before touching
    /// the queue, and a replica queue already holding
    /// [`max_queue`](ServeConfig::max_queue) requests sheds the submission
    /// with [`ServeError::Overloaded`].
    pub fn submit(&self, model: &str, input: Vec<f32>) -> Result<Pending> {
        self.submit_inner(model, input, None, None)
    }

    /// Like [`submit`](Self::submit), with a relative deadline: if the
    /// prediction has not *started* computing within `deadline`, the
    /// scheduler sheds the request and replies
    /// [`ServeError::DeadlineExceeded`] instead of spending a forward pass
    /// on an answer nobody is waiting for.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Duration,
    ) -> Result<Pending> {
        let dl = Instant::now() + deadline;
        self.submit_inner(model, input, Some(dl), None)
    }

    /// Enqueues one sample routed by an explicit request id (the network
    /// front door's path: the client-supplied wire id picks the replica,
    /// so a retried id deterministically lands on the same shard), with an
    /// optional relative deadline.
    pub fn submit_keyed(
        &self,
        model: &str,
        input: Vec<f32>,
        request_id: u64,
        deadline: Option<Duration>,
    ) -> Result<Pending> {
        let dl = deadline.map(|d| Instant::now() + d);
        self.submit_inner(model, input, dl, Some(request_id))
    }

    /// Which shard a request id routes to for `model` (`None` for an
    /// unknown model). Pure in the id: the same id always reports — and
    /// gets — the same shard.
    pub fn route_of(&self, model: &str, request_id: u64) -> Option<usize> {
        let mi = self.shared.models.iter().position(|m| m.name == model)?;
        let routes = &self.shared.models[mi].routes;
        Some(routes[route_replica(request_id, routes.len())].0)
    }

    fn submit_inner(
        &self,
        model: &str,
        input: Vec<f32>,
        deadline: Option<Instant>,
        route_key: Option<u64>,
    ) -> Result<Pending> {
        let mi = self
            .shared
            .models
            .iter()
            .position(|m| m.name == model)
            .ok_or_else(|| ServeError::UnknownModel { name: model.to_string() })?;
        let expect = self.shared.models[mi].plan.sample_len();
        if input.len() != expect {
            return Err(ServeError::BadRequest {
                what: format!(
                    "model {model:?} expects {expect} scalars per sample, got {}",
                    input.len()
                ),
            });
        }
        if let Some(index) = input.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteInput { index });
        }
        // Circuit breaker: a model whose forwards keep failing sheds at
        // admission, before any routing or queueing.
        if !self.shared.breakers[mi].admit(elapsed_us(&self.shared)) {
            self.shared.stats.shed_circuit();
            return Err(ServeError::CircuitOpen { model: model.to_string() });
        }
        let trace = TraceCtx::mint();
        let key = route_key.unwrap_or(trace.trace_id);
        let routes = &self.shared.models[mi].routes;
        let primary = routes[route_replica(key, routes.len())].0;
        // Replicas additionally masked out after the shard lock showed them
        // dead (the phase flag can lag the death by a beat).
        let mut seen_dead = vec![false; routes.len()];
        let (tx, rx) = mpsc::channel();
        loop {
            // Liveness-masked route: on a fully-live server this picks
            // exactly what `route_replica` picks; with dead/restarting/
            // failed replicas masked out, the same id still deterministically
            // picks the same surviving sibling.
            let live: Vec<bool> = routes
                .iter()
                .enumerate()
                .map(|(k, &(s, _))| !seen_dead[k] && self.shared.shards[s].routable())
                .collect();
            let Some(k) = route_replica_masked(key, &live) else {
                // Every replica of this model is down: fail fast, naming
                // the primary route the caller would have used.
                self.shared.breakers[mi].probe_aborted(elapsed_us(&self.shared));
                return Err(ServeError::SchedulerDied { shard: Some(primary) });
            };
            let (si, slot) = routes[k];
            let shard = &self.shared.shards[si];
            {
                let mut st = lock_state(shard);
                if st.shutdown {
                    return Err(ServeError::Shutdown);
                }
                if st.dead {
                    // Died since the mask was built: mask it and re-route.
                    drop(st);
                    seen_dead[k] = true;
                    continue;
                }
                if st.queues[slot].len() >= self.shared.cfg.max_queue {
                    drop(st);
                    self.shared.stats.shed_overload();
                    // No overload spill to siblings: admission stays
                    // replica-local (the admission proptest pins this).
                    self.shared.breakers[mi].probe_aborted(elapsed_us(&self.shared));
                    return Err(ServeError::Overloaded {
                        model: model.to_string(),
                        max_queue: self.shared.cfg.max_queue,
                    });
                }
                st.queues[slot].push_back(Request { input, trace, deadline, tx });
            }
            if si != primary {
                self.shared.stats.reroute();
            }
            self.shared.stats.enqueued(si);
            shard.cv.notify_all();
            return Ok(Pending { rx, shard: si });
        }
    }

    /// Submits one sample and blocks for its probability row.
    pub fn predict(&self, model: &str, input: Vec<f32>) -> Result<Vec<f32>> {
        self.submit(model, input)?.wait()
    }

    /// Like [`predict`](Self::predict), retrying retryable failures
    /// ([`ServeError::is_retryable`]: overload and dead-shard errors)
    /// under `policy`, within an optional overall deadline.
    ///
    /// One request id is minted up front and reused across every attempt,
    /// so all attempts route identically: while the primary shard is down
    /// the liveness mask sends the retry to the same deterministic
    /// surviving sibling, and once the supervisor respawns the primary the
    /// retry lands back on it. Backoffs come from
    /// [`RetryPolicy::backoff`] — exponential, capped, deterministically
    /// jittered by the id.
    ///
    /// The deadline is a hard budget over *all* attempts: each submission
    /// and wait inherits only the remaining slice, and a backoff sleep
    /// that would cross the deadline is never taken — the last error
    /// returns instead. [`ServeError::DeadlineExceeded`] itself is not
    /// retryable.
    pub fn predict_with_retry(
        &self,
        model: &str,
        input: &[f32],
        policy: RetryPolicy,
        deadline: Option<Duration>,
    ) -> Result<Vec<f32>> {
        let key = TraceCtx::mint().trace_id;
        policy.run(
            key,
            deadline,
            |left| {
                let pending = self.submit_keyed(model, input.to_vec(), key, left)?;
                match left {
                    Some(l) => pending.wait_timeout(l),
                    None => pending.wait(),
                }
            },
            ServeError::is_retryable,
        )
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }
}

/// What the scheduler does with one non-empty slot queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// Run it now.
    Ready,
    /// Hold it: it becomes ready after this much longer, unless enough
    /// arrivals fill a batch first.
    HoldFor(Duration),
}

/// The dispatch rule for a slot queue holding `queued ≥ 1` requests whose
/// oldest has waited `oldest_age`.
///
/// The queue is ready when the server is shutting down (drain), when it
/// holds [`max_batch`](ServeConfig::max_batch) requests, or when its oldest
/// request has waited [`max_wait`](ServeConfig::max_wait). Under the
/// default `max_wait` of zero every non-empty queue is ready at once.
fn dispatch(queued: usize, oldest_age: Duration, shutdown: bool, cfg: &ServeConfig) -> Dispatch {
    if shutdown || queued >= cfg.max_batch {
        return Dispatch::Ready;
    }
    match cfg.max_wait.checked_sub(oldest_age) {
        Some(left) if !left.is_zero() => Dispatch::HoldFor(left),
        _ => Dispatch::Ready,
    }
}

/// Picks shard `si`'s next batch to run, blocking until one is ready: the
/// first slot in index order that [`dispatch`] finds ready gives up to
/// `max_batch` of its requests. Under the default `max_wait` of zero a
/// free shard takes whatever is queued at once. Returns `None` once shut
/// down with all queues empty.
fn next_batch(shared: &Shared, si: usize) -> Option<(usize, Vec<Request>)> {
    let cfg = shared.cfg;
    let shard = &shared.shards[si];
    let mut st = lock_state(shard);
    loop {
        let now = Instant::now();
        let mut earliest: Option<Instant> = None;
        let mut pick = None;
        for (i, q) in st.queues.iter().enumerate() {
            let Some(front) = q.front() else { continue };
            match dispatch(q.len(), front.trace.since_submit(now), st.shutdown, &cfg) {
                Dispatch::Ready => {
                    pick = Some(i);
                    break;
                }
                Dispatch::HoldFor(left) => {
                    let at = now + left;
                    earliest = Some(earliest.map_or(at, |e| e.min(at)));
                }
            }
        }
        if let Some(i) = pick {
            let q = &mut st.queues[i];
            let n = q.len().min(cfg.max_batch);
            shared.stats.dequeued(si, n);
            return Some((i, q.drain(..n).collect()));
        }
        if st.shutdown {
            return None;
        }
        st = match earliest {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                shard.cv.wait_timeout(st, wait).unwrap_or_else(PoisonError::into_inner).0
            }
            None => shard.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// Spawns shard `si`'s scheduler thread over its plan clones — used both
/// at [`Server::start`] and by the supervisor when it respawns a dead
/// shard, each time with fresh clones from [`Shared::plan_clones`].
pub(crate) fn spawn_shard(shared: &Arc<Shared>, si: usize, plans: Vec<AnyPlan>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("lightts-serve-{si}"))
        .spawn(move || shard_scheduler(&shared, si, plans))
        .expect("spawn scheduler shard thread")
}

/// One shard's scheduler loop: owns a clone of each plan placed on it,
/// which shares the model's weights and brings its own scratch buffers.
///
/// Failure containment happens here, shard-locally. Requests whose
/// deadline has already passed are shed *before* the forward pass (their
/// compute would be wasted). The fused forward runs under `catch_unwind`:
/// a panic — from a kernel bug, a poisoned model, or the `serve.batch`
/// failpoint — fails only that batch's requests with
/// [`ServeError::Inference`], and the loop continues (the model's circuit
/// breaker counts the failure). A panic escaping the loop *itself* (the
/// `serve.shard` failpoint simulates one) kills only this shard: the drop
/// guard drains its queues with [`ServeError::SchedulerDied`] naming the
/// shard, flips its routing phase to restarting, and notifies the
/// supervisor — sibling shards keep serving untouched while the respawn
/// happens.
/// Records shard `si`'s death: its liveness gauge and the `alive` flag.
/// Every path by which a caller can learn of the death runs this first, so
/// a caller that has seen `SchedulerDied` finds the shard dead, or already
/// reborn and counted in `restarts`. The relaxed store is enough: the reply
/// channel (a send, or the sender's drop) orders it before the caller's
/// read.
fn mark_dead(shared: &Shared, si: usize) {
    shared.stats.shard_dead(si);
    shared.shards[si].alive.store(false, Ordering::Relaxed);
}

fn shard_scheduler(shared: &Shared, si: usize, mut plans: Vec<AnyPlan>) {
    /// Marks the shard dead when the loop exits — including via a panic
    /// escaping the loop itself (plan forwards are caught below, but the
    /// guard makes `/healthz` truthful against any exit path). On an
    /// *unclean* exit it also drains the shard's queues, answering each
    /// stranded request with a shard-tagged `SchedulerDied` instead of
    /// leaving its caller blocked forever, and sends the shard's index to
    /// the supervisor for respawn.
    struct AliveGuard<'a> {
        shared: &'a Shared,
        si: usize,
    }
    impl Drop for AliveGuard<'_> {
        fn drop(&mut self) {
            let shard = &self.shared.shards[self.si];
            // Before the first drained request hears of the death.
            mark_dead(self.shared, self.si);
            let mut st = lock_state(shard);
            let clean = st.shutdown;
            st.dead = !clean;
            if !clean {
                // Mask the shard out of routing while `st` is still held:
                // a submit observing `dead == false` under this lock must
                // also have seen a live phase.
                shard.phase.store(PHASE_RESTARTING, Ordering::Relaxed);
            }
            let mut drained = 0usize;
            if !clean {
                let now_us = elapsed_us(self.shared);
                for (slot, q) in st.queues.iter_mut().enumerate() {
                    let mi = shard.slot_models[slot];
                    while let Some(r) = q.pop_front() {
                        // A drained request may have been a breaker's
                        // half-open probe; make sure the breaker reopens
                        // rather than wedging half-open.
                        self.shared.breakers[mi].probe_aborted(now_us);
                        let _ = r.tx.send(Err(ServeError::SchedulerDied { shard: Some(self.si) }));
                        drained += 1;
                    }
                }
            }
            drop(st);
            if drained > 0 {
                self.shared.stats.dequeued(self.si, drained);
                for _ in 0..drained {
                    self.shared.stats.record_error();
                }
            }
            if !clean {
                obs::event!("serve.shard.dead", { shard: self.si, drained: drained });
            }
            if !clean {
                // Last: hand the corpse to the supervisor. At shutdown the
                // sender is already gone (or the send fails) — both mean
                // "no respawn", which is what shutdown wants.
                let tx = self
                    .shared
                    .supervisor_tx
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                if let Some(tx) = tx {
                    let _ = tx.send(self.si);
                }
            }
        }
    }
    /// Marks the shard dead when a panic unwinds through one iteration of
    /// the loop (a no-op otherwise).
    struct PanicNotice<'a> {
        shared: &'a Shared,
        si: usize,
    }
    impl Drop for PanicNotice<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                mark_dead(self.shared, self.si);
            }
        }
    }
    let _alive = AliveGuard { shared, si };
    let mut inputs: Vec<f32> = Vec::new();
    let mut probs: Vec<f32> = Vec::new();
    while let Some((slot, mut batch)) = next_batch(shared, si) {
        // Declared after `batch`, so a panic below marks the shard dead
        // before unwinding drops the batch, whose dropped reply senders
        // tell their callers the shard died.
        let _panic = PanicNotice { shared, si };
        // The shard-death failpoint sits OUTSIDE the catch_unwind below:
        // arming `serve.shard` kills this shard thread outright (either
        // action), exercising the sibling-isolation contract the chaos
        // test checks.
        if let Err(what) = obs::failpoint::hit("serve.shard") {
            panic!("failpoint serve.shard: {what}");
        }
        // Shed expired requests pre-inference.
        let now = Instant::now();
        let mi = shared.shards[si].slot_models[slot];
        batch.retain(|r| {
            let expired = r.deadline.is_some_and(|d| now >= d);
            if expired {
                // Counter before send: a caller whose `wait` just returned
                // must never read a stale counter. A shed request may have
                // been the model's half-open probe — reopen rather than
                // wedge the breaker.
                shared.breakers[mi].probe_aborted(elapsed_us(shared));
                shared.stats.shed_deadline();
                let _ = r.tx.send(Err(ServeError::DeadlineExceeded));
            }
            !expired
        });
        if batch.is_empty() {
            continue;
        }
        let plan = &mut plans[slot];
        let kind = plan.kind();
        let nc = plan.num_classes();
        // Stage 1: queue wait ends (and fusion starts) here.
        let fuse_start = Instant::now();
        for r in &batch {
            shared.stats.record_queue_wait(r.trace.since_submit(fuse_start), r.trace.trace_id);
        }
        inputs.clear();
        for r in &batch {
            inputs.extend_from_slice(&r.input);
        }
        // Stage 2: fusion ends, the forward pass starts.
        let t0 = Instant::now();
        let fuse = t0.duration_since(fuse_start);
        shared.stats.record_fuse(fuse, batch[0].trace.trace_id);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _prof = obs::prof::scope("serve.forward");
            obs::failpoint::hit("serve.batch").map_err(|what| ServeError::Inference { what })?;
            plan.predict_proba_into(&inputs, batch.len(), &mut probs).map_err(ServeError::Model)
        }));
        let service = t0.elapsed();
        let result = result.unwrap_or_else(|payload| {
            shared.stats.batch_panic();
            let what = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("batch forward panicked");
            Err(ServeError::Inference { what: format!("batch forward panicked: {what}") })
        });
        match result {
            Ok(()) => {
                // Counters before sends: a caller whose `wait` just returned
                // must never read stale stats.
                shared.breakers[mi].record_success();
                let done = Instant::now();
                shared.stats.record_batch(si, batch.len(), service);
                shared.stats.record_plan_requests(kind, batch.len());
                shared.stats.record_forward(service, batch[0].trace.trace_id);
                emit_shard_batch_span(shared, si, mi, &batch[0], batch.len(), fuse_start, done);
                for (bi, r) in batch.iter().enumerate() {
                    let row = probs[bi * nc..(bi + 1) * nc].to_vec();
                    shared.stats.record_latency(si, done.duration_since(r.trace.anchor()));
                    let reply_start = Instant::now();
                    let _ = r.tx.send(Ok(row));
                    let reply_end = Instant::now();
                    shared
                        .stats
                        .record_reply(reply_end.duration_since(reply_start), r.trace.trace_id);
                    emit_request_spans(
                        shared,
                        si,
                        mi,
                        r,
                        batch.len(),
                        Stages {
                            fuse_start,
                            forward_start: t0,
                            forward_end: done,
                            reply_start,
                            reply_end,
                        },
                        "ok",
                    );
                }
                obs::event!("serve.batch", {
                    model: shared.models[mi].name.as_str(),
                    plan: kind.name(),
                    shard: si,
                    batch: batch.len(),
                    service_us: service.as_secs_f64() * 1e6,
                });
            }
            Err(e) => {
                // An `Inference`-class outcome (contained panic or model
                // error): one failed batch = one breaker failure,
                // regardless of how many requests rode in it.
                if shared.breakers[mi].record_failure(elapsed_us(shared)) {
                    obs::event!("serve.circuit_open", {
                        model: shared.models[mi].name.as_str(),
                        shard: si,
                    });
                }
                let done = Instant::now();
                emit_shard_batch_span(shared, si, mi, &batch[0], batch.len(), fuse_start, done);
                for r in &batch {
                    shared.stats.record_error();
                    let reply_start = Instant::now();
                    let _ = r.tx.send(Err(e.clone()));
                    let reply_end = Instant::now();
                    emit_request_spans(
                        shared,
                        si,
                        mi,
                        r,
                        batch.len(),
                        Stages {
                            fuse_start,
                            forward_start: t0,
                            forward_end: done,
                            reply_start,
                            reply_end,
                        },
                        "error",
                    );
                }
                obs::event!("serve.batch_failed", {
                    model: shared.models[mi].name.as_str(),
                    shard: si,
                    batch: batch.len(),
                    error: e.to_string(),
                });
            }
        }
    }
}

/// The batch's stage boundary instants, shared by every member request.
#[derive(Clone, Copy)]
struct Stages {
    fuse_start: Instant,
    forward_start: Instant,
    forward_end: Instant,
    reply_start: Instant,
    reply_end: Instant,
}

/// Emits the per-batch `serve.shard.batch` span: which shard fused and
/// ran this batch, carrying the first member request's trace id so the
/// span links into that request's trace (its `[fuse, forward_end]` window
/// nests inside the member's root window, satisfying
/// `validate_trace_linkage`).
fn emit_shard_batch_span(
    shared: &Shared,
    si: usize,
    mi: usize,
    first: &Request,
    batch_len: usize,
    fuse_start: Instant,
    forward_end: Instant,
) {
    if !obs::enabled() {
        return;
    }
    obs::emit_span_at(
        "serve.shard.batch",
        vec![
            ("trace_id", first.trace.trace_id.into()),
            ("shard", si.into()),
            ("model", shared.models[mi].name.as_str().into()),
            ("batch", batch_len.into()),
        ],
        first.trace.ts_us_at(forward_end),
        forward_end.duration_since(fuse_start).as_secs_f64() * 1e6,
    );
}

/// Emits one request's stage spans plus its `serve.request` root span.
///
/// Every timestamp is derived from the request's own [`TraceCtx`] anchor
/// ([`TraceCtx::ts_us_at`]), so the stages nest *exactly* inside the root's
/// `[submit, reply_end]` window — the invariant
/// `lightts_obs::jsonl::validate_trace_linkage` checks. No-op (one relaxed
/// atomic load) unless span capture is on (`LIGHTTS_OBS` sink or the
/// telemetry `/tracez` ring).
fn emit_request_spans(
    shared: &Shared,
    si: usize,
    mi: usize,
    r: &Request,
    batch_len: usize,
    st: Stages,
    outcome: &str,
) {
    if !obs::enabled() {
        return;
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let stage = |path: &str, end: Instant, dur: Duration| {
        obs::emit_span_at(
            path,
            vec![("trace_id", r.trace.trace_id.into())],
            r.trace.ts_us_at(end),
            us(dur),
        );
    };
    stage("serve.queue_wait", st.fuse_start, r.trace.since_submit(st.fuse_start));
    stage("serve.fuse", st.forward_start, st.forward_start.duration_since(st.fuse_start));
    stage("serve.forward", st.forward_end, st.forward_end.duration_since(st.forward_start));
    stage("serve.reply", st.reply_end, st.reply_end.duration_since(st.reply_start));
    obs::emit_span_at(
        "serve.request",
        vec![
            ("trace_id", r.trace.trace_id.into()),
            ("model", shared.models[mi].name.as_str().into()),
            ("shard", si.into()),
            ("batch", batch_len.into()),
            ("outcome", outcome.into()),
        ],
        r.trace.ts_us_at(st.reply_end),
        us(r.trace.since_submit(st.reply_end)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_reply_channel_is_scheduler_death_naming_the_shard() {
        assert_eq!(
            Pending::disconnected(2).wait(),
            Err(ServeError::SchedulerDied { shard: Some(2) })
        );
        assert_eq!(
            Pending::disconnected(5).wait_timeout(Duration::from_millis(1)),
            Err(ServeError::SchedulerDied { shard: Some(5) })
        );
    }

    #[test]
    fn wait_timeout_times_out_when_no_reply_arrives() {
        let (tx, rx) = mpsc::channel();
        let p = Pending { rx, shard: 0 };
        assert_eq!(p.wait_timeout(Duration::from_millis(5)), Err(ServeError::DeadlineExceeded));
        drop(tx);
    }

    #[test]
    fn masked_routing_matches_unmasked_when_fully_live_and_is_total() {
        for n in [1usize, 2, 3, 4, 7] {
            let live = vec![true; n];
            for id in [0u64, 1, 42, u64::MAX, 0x9E37_79B9] {
                // All-live masked routing IS route_replica: masking changes
                // nothing on a healthy server.
                assert_eq!(route_replica_masked(id, &live), Some(route_replica(id, n)));
            }
        }
        // No live replica: no route.
        assert_eq!(route_replica_masked(7, &[false, false]), None);
        assert_eq!(route_replica_masked(7, &[]), None);
    }

    #[test]
    fn masked_routing_is_deterministic_and_lands_only_on_live_replicas() {
        let masks: [&[bool]; 4] = [
            &[true, false, true],
            &[false, true, false],
            &[true, true, false],
            &[false, false, true],
        ];
        for mask in masks {
            for id in 0u64..64 {
                let got = route_replica_masked(id, mask).expect("some replica is live");
                assert!(mask[got], "routed to a masked-out replica");
                assert_eq!(route_replica_masked(id, mask), Some(got), "non-deterministic");
            }
        }
        // Single survivor: every id routes to it.
        for id in 0u64..64 {
            assert_eq!(route_replica_masked(id, &[false, true, false]), Some(1));
        }
    }

    #[test]
    fn route_replica_is_total_and_deterministic() {
        for replicas in [1usize, 2, 3, 4, 7] {
            for id in [0u64, 1, 42, u64::MAX, 0x9E37_79B9] {
                let r = route_replica(id, replicas);
                assert!(r < replicas);
                assert_eq!(r, route_replica(id, replicas));
            }
        }
        // Degenerate replica counts stay total.
        assert_eq!(route_replica(123, 0), 0);
    }

    #[test]
    fn placement_round_robins_replicas() {
        let (slots, routes) = placement(3, 4, 2);
        // Model m sits on shards (m + 0) % 4 and (m + 1) % 4.
        assert_eq!(routes[0].iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(routes[1].iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(routes[2].iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![2, 3]);
        // Slots are consistent with routes.
        for (m, route) in routes.iter().enumerate() {
            for &(s, slot) in route {
                assert_eq!(slots[s][slot], m);
            }
        }
        // Replicate-everywhere covers every shard exactly once per model.
        let (slots, routes) = placement(2, 3, 3);
        for route in &routes {
            let mut shards: Vec<usize> = route.iter().map(|&(s, _)| s).collect();
            shards.sort_unstable();
            assert_eq!(shards, vec![0, 1, 2]);
        }
        assert!(slots.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn default_dispatch_runs_a_lone_request_at_once() {
        let cfg = ServeConfig::default();
        assert_eq!(dispatch(1, Duration::ZERO, false, &cfg), Dispatch::Ready);
    }

    #[test]
    fn explicit_max_wait_holds_a_partial_batch_until_it_expires() {
        let cfg = ServeConfig { max_wait: Duration::from_millis(5), ..ServeConfig::default() };
        let ms = Duration::from_millis;
        assert_eq!(dispatch(1, ms(1), false, &cfg), Dispatch::HoldFor(ms(4)));
        assert_eq!(dispatch(1, ms(5), false, &cfg), Dispatch::Ready);
        assert_eq!(dispatch(1, ms(7), false, &cfg), Dispatch::Ready);
    }

    #[test]
    fn a_full_batch_or_shutdown_is_ready_at_once() {
        let cfg = ServeConfig { max_wait: Duration::from_secs(10), ..ServeConfig::default() };
        assert_eq!(dispatch(cfg.max_batch, Duration::ZERO, false, &cfg), Dispatch::Ready);
        assert_eq!(dispatch(cfg.max_batch + 3, Duration::ZERO, false, &cfg), Dispatch::Ready);
        for queued in [1, 2, cfg.max_batch] {
            assert_eq!(dispatch(queued, Duration::ZERO, true, &cfg), Dispatch::Ready);
        }
    }

    #[test]
    fn shard_resolution_clamps() {
        // Explicit config wins and is not clamped to the model count.
        assert_eq!(resolve_shards(4, 1), 4);
        assert_eq!(resolve_shards(1, 100), 1);
        assert_eq!(resolve_shards(MAX_SHARDS + 7, 1), MAX_SHARDS);
    }
}

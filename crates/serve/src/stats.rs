//! Serving statistics: per-request latency and per-batch throughput.
//!
//! Since PR 3 the counters live in a per-server
//! [`lightts_obs::Registry`]: [`StatsInner`] is a thin bundle of shared
//! metric handles resolved once at server start, and [`ServeStats`] is a
//! point-in-time *view* computed from a registry snapshot. The scheduler
//! hot path therefore only touches lock-free atomics, while the same
//! numbers are exportable through
//! [`Server::metrics`](crate::Server::metrics) in Prometheus or JSON
//! form.

use crate::registry::PlanKind;
use lightts_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Per-shard metric handles: the sharded topology rendered into
/// `/metrics` as `serve.shard{i}.*` series alongside the aggregate
/// `serve.*` ones, so a scrape shows queue skew, batch formation, and
/// liveness per shard.
#[derive(Debug)]
pub(crate) struct ShardStats {
    /// Requests currently queued on this shard (all its slots).
    queue_depth: Arc<Gauge>,
    /// Requests answered successfully by this shard.
    requests: Arc<Counter>,
    /// Fused batches this shard has executed.
    batches: Arc<Counter>,
    /// Per-request enqueue→reply latency on this shard, nanoseconds.
    latency_ns: Arc<Histogram>,
    /// 1 while the shard's scheduler thread runs its loop, 0 once it has
    /// exited (cleanly or by a panic escaping the loop). Set back to 1 by
    /// the supervisor when it respawns the shard.
    alive: Arc<Gauge>,
    /// Times the supervisor has respawned this shard.
    restarts: Arc<Counter>,
}

/// Shared metric handles, updated by the scheduler shard threads.
///
/// Each server owns its own [`Registry`] (not the process-global one) so
/// that concurrent servers — common in tests — never mix their counters.
#[derive(Debug)]
pub(crate) struct StatsInner {
    registry: Arc<Registry>,
    /// One bundle per scheduler shard, indexed by shard id.
    shards: Vec<ShardStats>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    batches: Arc<Counter>,
    max_batch: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    /// Per-request enqueue→reply latency, nanoseconds.
    latency_ns: Arc<Histogram>,
    /// Per-batch fused-forward service time, nanoseconds.
    service_ns: Arc<Histogram>,
    /// Stage breakdown of the same enqueue→reply path, one histogram per
    /// stage, each bucket carrying the last `trace_id` to land in it as an
    /// exemplar — so a tail-latency bucket in a scrape names a concrete
    /// request to grep out of `/tracez`.
    ///
    /// Per-request time spent queued before its batch was formed.
    queue_wait_ns: Arc<Histogram>,
    /// Per-batch input-fusion (gather/copy) time.
    fuse_ns: Arc<Histogram>,
    /// Per-batch fused forward-pass time.
    forward_ns: Arc<Histogram>,
    /// Per-request reply (row copy + channel send) time.
    reply_ns: Arc<Histogram>,
    /// High-water mark of bytes parked in the tensor buffer pool
    /// ([`lightts_tensor::pool::pool_high_water_bytes`]); process-wide, but
    /// the scheduler thread's slabs dominate it in a serving deployment.
    pool_high_water: Arc<Gauge>,
    /// Cumulative tensor-pool hits ([`lightts_tensor::pool::pool_hits`]).
    pool_hits: Arc<Gauge>,
    /// Cumulative tensor-pool misses: steady-state serving must hold this
    /// flat (every miss is a transient heap allocation on the hot path).
    pool_misses: Arc<Gauge>,
    /// Requests shed at admission because the model's queue was full.
    shed_overload: Arc<Counter>,
    /// Requests shed by the scheduler because their deadline had already
    /// passed when their batch was formed.
    shed_deadline: Arc<Counter>,
    /// Requests shed at admission because the model's circuit breaker was
    /// open (or half-open with a probe already in flight).
    shed_circuit: Arc<Counter>,
    /// Submissions that landed on a non-primary replica because the
    /// liveness mask excluded their primary (dead/restarting/failed
    /// shard).
    reroutes: Arc<Counter>,
    /// Shard respawns performed by the supervisor, summed over shards
    /// (the per-shard split is `serve.shard{i}.restarts`).
    restarts: Arc<Counter>,
    /// Shards marked permanently failed (restart budget exhausted or a
    /// respawn probe answered non-identically).
    shards_failed: Arc<Gauge>,
    /// Circuit-open transitions, summed over models.
    circuit_opens: Arc<Counter>,
    /// Per-model breaker state mirrors (`serve.circuit{m}.state`:
    /// 0 closed / 1 open / 2 half-open), indexed by model.
    circuits: Vec<Arc<Gauge>>,
    /// Fused forwards that panicked and were contained by the scheduler.
    batch_panics: Arc<Counter>,
    /// Requests answered by an f32 [`InferencePlan`]
    /// (`lightts_models::inference`).
    plan_f32_requests: Arc<Counter>,
    /// Requests answered by an int8 `QuantizedPlan`
    /// (`lightts_models::qinference`) — the adoption signal of
    /// [`PlanKind::I8`](crate::PlanKind::I8) in a mixed registry.
    plan_i8_requests: Arc<Counter>,
}

impl StatsInner {
    pub(crate) fn new(nshards: usize, nmodels: usize) -> StatsInner {
        let registry = Arc::new(Registry::new());
        let shards = (0..nshards)
            .map(|i| {
                let alive = registry.gauge(&format!("serve.shard{i}.alive"));
                alive.set(1);
                ShardStats {
                    queue_depth: registry.gauge(&format!("serve.shard{i}.queue_depth")),
                    requests: registry.counter(&format!("serve.shard{i}.requests")),
                    batches: registry.counter(&format!("serve.shard{i}.batches")),
                    latency_ns: registry.histogram(&format!("serve.shard{i}.latency_ns")),
                    alive,
                    restarts: registry.counter(&format!("serve.shard{i}.restarts")),
                }
            })
            .collect();
        let circuits = (0..nmodels)
            .map(|m| {
                let g = registry.gauge(&format!("serve.circuit{m}.state"));
                g.set(0);
                g
            })
            .collect();
        StatsInner {
            shards,
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            batches: registry.counter("serve.batches"),
            max_batch: registry.gauge("serve.max_batch"),
            queue_depth: registry.gauge("serve.queue_depth"),
            batch_size: registry.histogram("serve.batch_size"),
            latency_ns: registry.histogram("serve.latency_ns"),
            service_ns: registry.histogram("serve.service_ns"),
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            fuse_ns: registry.histogram("serve.fuse_ns"),
            forward_ns: registry.histogram("serve.forward_ns"),
            reply_ns: registry.histogram("serve.reply_ns"),
            pool_high_water: registry.gauge("serve.pool_high_water_bytes"),
            pool_hits: registry.gauge("serve.pool_hits"),
            pool_misses: registry.gauge("serve.pool_misses"),
            shed_overload: registry.counter("serve.shed_overload"),
            shed_deadline: registry.counter("serve.shed_deadline"),
            shed_circuit: registry.counter("serve.shed_circuit"),
            reroutes: registry.counter("serve.reroutes"),
            restarts: registry.counter("serve.restarts"),
            shards_failed: registry.gauge("serve.shards_failed"),
            circuit_opens: registry.counter("serve.circuit_opens"),
            circuits,
            batch_panics: registry.counter("serve.batch_panics"),
            plan_f32_requests: registry.counter("serve.plan_f32_requests"),
            plan_i8_requests: registry.counter("serve.plan_i8_requests"),
            registry,
        }
    }

    /// Mirrors the tensor buffer-pool counters into this server's registry
    /// so they ride along with [`Server::metrics`](crate::Server::metrics)
    /// exposition. Cheap (three relaxed loads + three stores); called after
    /// every fused batch and on snapshot.
    fn refresh_pool_gauges(&self) {
        self.pool_high_water.set(lightts_tensor::pool::pool_high_water_bytes() as i64);
        self.pool_hits.set(lightts_tensor::pool::pool_hits() as i64);
        self.pool_misses.set(lightts_tensor::pool::pool_misses() as i64);
    }

    /// The registry backing these stats, for exposition.
    pub(crate) fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A request entered a queue on `shard`.
    pub(crate) fn enqueued(&self, shard: usize) {
        self.queue_depth.add(1);
        self.shards[shard].queue_depth.add(1);
    }

    /// `n` requests left `shard`'s queues (batch formation or drain).
    pub(crate) fn dequeued(&self, shard: usize, n: usize) {
        self.queue_depth.sub(n as i64);
        self.shards[shard].queue_depth.sub(n as i64);
    }

    /// One fused batch completed successfully on `shard`.
    pub(crate) fn record_batch(&self, shard: usize, batch_size: usize, service: Duration) {
        self.requests.add(batch_size as u64);
        self.batches.inc();
        self.batch_size.record(batch_size as u64);
        self.service_ns.record_duration(service);
        self.max_batch.record_max(batch_size as i64);
        self.shards[shard].requests.add(batch_size as u64);
        self.shards[shard].batches.inc();
        self.refresh_pool_gauges();
    }

    /// One answered request's enqueue→reply latency on `shard`.
    pub(crate) fn record_latency(&self, shard: usize, latency: Duration) {
        self.latency_ns.record_duration(latency);
        self.shards[shard].latency_ns.record_duration(latency);
    }

    /// `shard`'s scheduler thread exited (cleanly or not).
    pub(crate) fn shard_dead(&self, shard: usize) {
        self.shards[shard].alive.set(0);
    }

    /// The supervisor respawned `shard`: flip its liveness gauge back and
    /// count the restart, per shard and in aggregate.
    pub(crate) fn shard_reborn(&self, shard: usize) {
        self.shards[shard].alive.set(1);
        self.shards[shard].restarts.inc();
        self.restarts.inc();
    }

    /// A shard was marked permanently failed (budget exhausted or a
    /// respawn probe answered non-identically).
    pub(crate) fn shard_failed(&self) {
        self.shards_failed.add(1);
    }

    /// A submission landed on a non-primary replica because its primary
    /// was masked out as not live.
    pub(crate) fn reroute(&self) {
        self.reroutes.inc();
    }

    /// A submission was shed at admission by an open circuit breaker.
    pub(crate) fn shed_circuit(&self) {
        self.shed_circuit.inc();
    }

    /// Model `m`'s `serve.circuit{m}.state` gauge, for its [`Breaker`]
    /// to mirror state transitions into.
    ///
    /// [`Breaker`]: crate::breaker::Breaker
    pub(crate) fn circuit_gauge(&self, m: usize) -> Arc<Gauge> {
        Arc::clone(&self.circuits[m])
    }

    /// The shared `serve.circuit_opens` counter.
    pub(crate) fn circuit_opens(&self) -> Arc<Counter> {
        Arc::clone(&self.circuit_opens)
    }

    /// One request's time queued before batch formation, with its trace id
    /// as the bucket exemplar.
    pub(crate) fn record_queue_wait(&self, d: Duration, trace_id: u64) {
        self.queue_wait_ns.record_duration_with_exemplar(d, trace_id);
    }

    /// One batch's input-fusion time, exemplified by one member request.
    pub(crate) fn record_fuse(&self, d: Duration, trace_id: u64) {
        self.fuse_ns.record_duration_with_exemplar(d, trace_id);
    }

    /// One batch's forward-pass time, exemplified by one member request.
    pub(crate) fn record_forward(&self, d: Duration, trace_id: u64) {
        self.forward_ns.record_duration_with_exemplar(d, trace_id);
    }

    /// One request's reply time, with its trace id as the bucket exemplar.
    pub(crate) fn record_reply(&self, d: Duration, trace_id: u64) {
        self.reply_ns.record_duration_with_exemplar(d, trace_id);
    }

    pub(crate) fn record_error(&self) {
        self.errors.inc();
    }

    /// A submission was shed at admission (full queue).
    pub(crate) fn shed_overload(&self) {
        self.shed_overload.inc();
    }

    /// A queued request was shed pre-inference (expired deadline).
    pub(crate) fn shed_deadline(&self) {
        self.shed_deadline.inc();
    }

    /// A fused forward panicked and the scheduler contained it.
    pub(crate) fn batch_panic(&self) {
        self.batch_panics.inc();
    }

    /// `n` requests were answered by a plan of `kind`.
    pub(crate) fn record_plan_requests(&self, kind: PlanKind, n: usize) {
        match kind {
            PlanKind::F32 => self.plan_f32_requests.add(n as u64),
            PlanKind::I8 => self.plan_i8_requests.add(n as u64),
        }
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        self.refresh_pool_gauges();
        let latency = self.latency_ns.snapshot();
        let service = self.service_ns.snapshot();
        let q = |p: f64| Duration::from_nanos(latency.quantile(p) as u64);
        ServeStats {
            shards: self.shards.len(),
            shards_alive: self.shards.iter().filter(|s| s.alive.get() == 1).count(),
            requests: self.requests.get(),
            errors: self.errors.get(),
            batches: self.batches.get(),
            max_batch: self.max_batch.get().max(0) as usize,
            shed_overload: self.shed_overload.get(),
            shed_deadline: self.shed_deadline.get(),
            shed_circuit: self.shed_circuit.get(),
            reroutes: self.reroutes.get(),
            restarts: self.restarts.get(),
            shards_failed: self.shards_failed.get().max(0) as usize,
            circuit_opens: self.circuit_opens.get(),
            batch_panics: self.batch_panics.get(),
            plan_f32_requests: self.plan_f32_requests.get(),
            plan_i8_requests: self.plan_i8_requests.get(),
            total_latency: Duration::from_nanos(latency.sum),
            total_service: Duration::from_nanos(service.sum),
            latency_p50: q(0.50),
            latency_p90: q(0.90),
            latency_p99: q(0.99),
        }
    }
}

/// A point-in-time snapshot of serving counters.
///
/// Obtained from [`Server::stats`](crate::Server::stats) /
/// [`ServerHandle::stats`](crate::ServerHandle::stats); all totals are
/// cumulative since the server started. The latency percentiles come from
/// a log-bucketed histogram, so they are order-of-magnitude estimates
/// (within a factor of two of the true order statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Number of scheduler shards the server runs.
    pub shards: usize,
    /// Shards whose scheduler thread is still running its loop.
    pub shards_alive: usize,
    /// Requests answered successfully.
    pub requests: u64,
    /// Requests rejected with an error (failed forward).
    pub errors: u64,
    /// Fused batches executed.
    pub batches: u64,
    /// Largest batch the scheduler has formed so far.
    pub max_batch: usize,
    /// Submissions shed at admission with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded).
    pub shed_overload: u64,
    /// Queued requests shed pre-inference with
    /// [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded).
    pub shed_deadline: u64,
    /// Submissions shed at admission with
    /// [`ServeError::CircuitOpen`](crate::ServeError::CircuitOpen) (open
    /// breaker, or half-open with a probe already in flight).
    pub shed_circuit: u64,
    /// Submissions that landed on a non-primary replica because their
    /// primary shard was dead, restarting, or failed.
    pub reroutes: u64,
    /// Shard respawns performed by the supervisor.
    pub restarts: u64,
    /// Shards marked permanently failed (restart budget exhausted or a
    /// respawn probe answered non-identically).
    pub shards_failed: usize,
    /// Circuit-open transitions, summed over models.
    pub circuit_opens: u64,
    /// Fused forwards that panicked; each failed only its own batch.
    pub batch_panics: u64,
    /// Requests answered by f32 plans.
    pub plan_f32_requests: u64,
    /// Requests answered by int8 plans.
    pub plan_i8_requests: u64,
    /// Σ enqueue→reply latency over all answered requests.
    pub total_latency: Duration,
    /// Σ fused-forward service time over all batches.
    pub total_service: Duration,
    /// Median enqueue→reply latency (histogram estimate).
    pub latency_p50: Duration,
    /// 90th-percentile enqueue→reply latency (histogram estimate).
    pub latency_p90: Duration,
    /// 99th-percentile enqueue→reply latency (histogram estimate).
    pub latency_p99: Duration,
}

impl ServeStats {
    /// Mean number of requests per fused batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Mean per-request latency (enqueue to reply).
    pub fn mean_latency(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.total_latency.as_secs_f64() / self.requests as f64)
        }
    }

    /// Requests served per second of fused-forward service time — the
    /// model-bound throughput, excluding queueing.
    pub fn service_throughput(&self) -> f64 {
        let secs = self.total_service.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests ({} errors, {} shed overload, {} shed deadline, \
             {} shed circuit, {} batch panics) in {} batches (mean {:.2}, max {}) \
             on {}/{} shards ({} restarts, {} failed, {} reroutes), \
             mean latency {:?} (p50 {:?}, p90 {:?}, p99 {:?}), \
             {:.1} req/s service throughput",
            self.requests,
            self.errors,
            self.shed_overload,
            self.shed_deadline,
            self.shed_circuit,
            self.batch_panics,
            self.batches,
            self.mean_batch_size(),
            self.max_batch,
            self.shards_alive,
            self.shards,
            self.restarts,
            self.shards_failed,
            self.reroutes,
            self.mean_latency(),
            self.latency_p50,
            self.latency_p90,
            self.latency_p99,
            self.service_throughput()
        )
    }
}

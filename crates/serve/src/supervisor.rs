//! The shard supervisor: detects shard death and respawns the shard with
//! fresh clones of the registered plans — after proving the reborn shard
//! would answer **bitwise identically** to its pre-death self.
//!
//! ## Protocol
//!
//! A shard thread that exits uncleanly runs its `AliveGuard`
//! ([`crate::server`]): the guard drains the shard's queues with
//! shard-tagged [`SchedulerDied`](crate::ServeError::SchedulerDied)
//! errors, flips the shard's routing phase to `RESTARTING` (so the
//! liveness-masked router sends new submissions to surviving replicas),
//! and sends the shard's index down the supervisor channel. The
//! supervisor — one thread per server, asleep on that channel — then:
//!
//! 1. **joins** the dead thread, so the OS thread and its guard are fully
//!    retired before any rebirth;
//! 2. checks the **restart budget**: at most
//!    [`restart_budget`](crate::ServeConfig::restart_budget) respawns per
//!    shard per rolling [`restart_window`](crate::ServeConfig::restart_window).
//!    Over budget → the shard is marked permanently **failed**: routing
//!    masks it forever, `serve.shards_failed` rises, and `/healthz`
//!    reports `degraded`;
//! 3. clones the shard's plans from the registered ones (a clone shares
//!    the model's compiled weights and starts with empty scratch, so no
//!    weights are copied) and **verifies** each clone answers the
//!    deterministic probe input bitwise identically to the golden rows
//!    recorded at server start — the same identity contract the
//!    equivalence suite pins for replicas. A mismatch fails the shard
//!    instead of reviving it;
//! 4. clears the shard's `dead` flag, flips its liveness gauge back,
//!    counts `serve.shard{i}.restarts`, records the restart timestamp for
//!    `/healthz`, spawns the new scheduler thread, and only then reopens
//!    routing (`phase → LIVE`).
//!
//! Shutdown simply drops the supervisor channel's sender, ending the
//! `recv` loop; [`Server`](crate::Server) joins the supervisor *before*
//! flagging shards down, so a respawn never races the drain.

use crate::registry::AnyPlan;
use crate::server::{self, elapsed_us, epoch_us, lock_state, Shared, PHASE_FAILED, PHASE_LIVE};
use lightts_obs::{self as obs, splitmix64};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;

/// The deterministic probe sample for model `model_index`: `sample_len`
/// values in `[-1, 1)`, a pure function of `(model_index, position)` — so
/// the golden rows recorded at server start and the verification rows
/// computed at respawn are probes of *identical* inputs.
pub(crate) fn probe_input(sample_len: usize, model_index: usize) -> Vec<f32> {
    (0..sample_len)
        .map(|i| {
            let bits = splitmix64(((model_index as u64) << 32) ^ i as u64);
            // Top 24 bits → an exactly-representable fraction in [0, 1).
            let frac = (bits >> 40) as f32 / (1u64 << 24) as f32;
            frac * 2.0 - 1.0
        })
        .collect()
}

/// Runs the probe input through a plan and returns the probability row as
/// IEEE-754 bit patterns (`None` if the forward fails). Bit patterns, not
/// floats: the respawn identity check is **bitwise**, the same currency as
/// the crate's determinism contract.
pub(crate) fn probe_bits(plan: &mut AnyPlan, model_index: usize) -> Option<Vec<u32>> {
    let input = probe_input(plan.sample_len(), model_index);
    let mut probs = Vec::new();
    plan.predict_proba_into(&input, 1, &mut probs).ok()?;
    Some(probs.iter().map(|p| p.to_bits()).collect())
}

/// Spawns the supervisor thread for a server. It sleeps on `rx` and
/// respawns whichever shard index arrives; it exits when every sender is
/// gone (shutdown drops the one in [`Shared::supervisor_tx`]).
pub(crate) fn spawn(shared: Arc<Shared>, rx: mpsc::Receiver<usize>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("lightts-supervise".into())
        .spawn(move || {
            // Per-shard restart instants (µs since server start) inside the
            // rolling window — supervisor-local, no sharing needed.
            let mut history: Vec<Vec<u64>> = vec![Vec::new(); shared.shards.len()];
            while let Ok(si) = rx.recv() {
                respawn(&shared, si, &mut history[si]);
            }
        })
        .expect("spawn supervisor thread")
}

/// One respawn attempt for shard `si`. See the module docs for the
/// protocol; every early return leaves the shard masked out of routing
/// (restarting or failed), never half-revived.
fn respawn(shared: &Arc<Shared>, si: usize, history: &mut Vec<u64>) {
    let shard = &shared.shards[si];
    // 1. Retire the corpse: after this join the old thread (and its drop
    // guard) is completely gone.
    let handle = {
        let mut threads = shared.threads.lock().unwrap_or_else(PoisonError::into_inner);
        threads[si].take()
    };
    if let Some(h) = handle {
        let _ = h.join();
    }
    if lock_state(shard).shutdown {
        return; // shutting down: the server owns the rest
    }
    // 2. Budget: N respawns per rolling window, then permanently failed.
    let now_us = elapsed_us(shared);
    let window_us = shared.cfg.restart_window.as_micros().min(u128::from(u64::MAX)) as u64;
    history.retain(|&t| now_us.saturating_sub(t) < window_us);
    if history.len() >= shared.cfg.restart_budget {
        shard.phase.store(PHASE_FAILED, Ordering::Relaxed);
        shared.stats.shard_failed();
        obs::event!("serve.shard.failed", {
            shard: si,
            restarts_in_window: history.len(),
            budget: shared.cfg.restart_budget,
        });
        return;
    }
    // 3. Fresh clones of the registered plans, each verified bitwise
    // against the golden probe rows before it may serve.
    let mut plans = shared.plan_clones(si);
    for (slot, plan) in plans.iter_mut().enumerate() {
        let mi = shard.slot_models[slot];
        let golden = &shared.probe_golden[mi];
        if golden.is_empty() {
            continue; // no golden row was recordable at start
        }
        if probe_bits(plan, mi).as_deref() != Some(golden.as_slice()) {
            shard.phase.store(PHASE_FAILED, Ordering::Relaxed);
            shared.stats.shard_failed();
            obs::event!("serve.shard.failed", {
                shard: si,
                model: shared.models[mi].name.as_str(),
                reason: "respawn probe answered non-identically",
            });
            return;
        }
    }
    // 4. Rebirth: counters first, then state, routing last — an observer
    // that sees the shard alive again must already see the restart
    // counted (and its timestamp stamped), and a submit that sees
    // `phase == LIVE` must find `dead == false` and a spawned (or about to
    // be spawned) scheduler behind the queues it enqueues into.
    shared.stats.shard_reborn(si);
    history.push(now_us);
    shared.last_restart_us.store(epoch_us(), Ordering::Relaxed);
    {
        let mut st = lock_state(shard);
        if st.shutdown {
            return;
        }
        st.dead = false;
    }
    shard.alive.store(true, Ordering::Relaxed);
    {
        let mut threads = shared.threads.lock().unwrap_or_else(PoisonError::into_inner);
        threads[si] = Some(server::spawn_shard(shared, si, plans));
    }
    shard.phase.store(PHASE_LIVE, Ordering::Relaxed);
    obs::event!("serve.shard.reborn", { shard: si, restarts_in_window: history.len() });
}

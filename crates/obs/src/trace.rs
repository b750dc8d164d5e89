//! Request-scoped trace context and the `/tracez` span ring buffer.
//!
//! A [`TraceCtx`] is minted once per request at the serving front door
//! ([`TraceCtx::mint`]) and carried through every stage the request
//! touches — queue, batch fusion, forward, reply. Each stage stamps the
//! context's `trace_id` on the span line it emits, so grepping one id out
//! of a trace file (or `GET /tracez`) reconstructs that request's full
//! queue-wait / fuse / forward / reply timing breakdown.
//!
//! Timestamps derived from a context ([`TraceCtx::ts_us_at`]) are computed
//! as `submit_us + (instant − anchor)` against the *same* monotonic anchor
//! captured at mint time, so the stage spans of one trace nest exactly
//! inside the root span's `[submit, reply]` range — the invariant
//! `jsonl::validate_trace_linkage` checks.
//!
//! The **span ring** is a fixed-capacity buffer of the most recently
//! completed span lines, independent of the `LIGHTTS_OBS` sink: enabling it
//! (the telemetry HTTP server does so on startup) makes `GET /tracez` serve
//! live spans even when no JSONL sink is configured. When the ring is off
//! (the default) it costs nothing.

use crate::splitmix64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity used by the telemetry HTTP server.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Returns a fresh process-unique, non-zero trace id.
///
/// Ids are a splitmix64 hash of a monotone counter seeded from the wall
/// clock at first use, truncated to **48 bits** so they survive a round
/// trip through any JSON reader that holds numbers as `f64` (exact below
/// 2⁵³) — trace ids travel as plain numeric span fields. Zero is reserved
/// as "no trace" (histogram exemplar slots use it as the empty marker).
pub fn next_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(1)
    });
    loop {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed.wrapping_add(n)) & ((1u64 << 48) - 1);
        if id != 0 {
            return id;
        }
    }
}

/// Per-request trace context: a process-unique id plus the submit
/// timestamp in both clock domains (wall for export, monotonic for exact
/// stage arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// Non-zero process-unique request id.
    pub trace_id: u64,
    /// Wall-clock submit time, µs since the UNIX epoch — the root span's
    /// start.
    pub submit_us: u64,
    /// Monotonic anchor captured at the same moment as `submit_us`.
    anchor: Instant,
}

impl TraceCtx {
    /// Mints a context for a request entering the system now.
    pub fn mint() -> TraceCtx {
        let submit_us =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0);
        TraceCtx { trace_id: next_trace_id(), submit_us, anchor: Instant::now() }
    }

    /// The monotonic anchor captured at mint time (pair stage `Instant`s
    /// against this for exact in-trace arithmetic).
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// The wall-clock µs timestamp corresponding to the monotonic `at`,
    /// derived arithmetically from the mint anchor — never re-reads the
    /// wall clock, so stage timestamps of one trace are mutually exact.
    pub fn ts_us_at(&self, at: Instant) -> u64 {
        self.submit_us + at.saturating_duration_since(self.anchor).as_micros() as u64
    }

    /// Elapsed time from the mint anchor to `at`.
    pub fn since_submit(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.anchor)
    }
}

struct Ring {
    lines: VecDeque<String>,
    capacity: usize,
}

fn ring() -> &'static Mutex<Option<Ring>> {
    static RING: OnceLock<Mutex<Option<Ring>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(None))
}

/// Fast-path flag mirroring whether the ring is enabled (one relaxed load
/// on every span drop).
static RING_ON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether the span ring is capturing (one relaxed atomic load).
#[inline]
pub fn ring_enabled() -> bool {
    RING_ON.load(Ordering::Relaxed)
}

/// Enables the span ring with the given capacity (replacing any existing
/// ring and its contents; a 0 is treated as 1). Completed spans start
/// landing in `GET /tracez` / [`tracez_lines`] from this point on.
pub fn enable_ring(capacity: usize) {
    let mut r = ring().lock().unwrap_or_else(PoisonError::into_inner);
    *r = Some(Ring { lines: VecDeque::new(), capacity: capacity.max(1) });
    RING_ON.store(true, Ordering::Relaxed);
    crate::span::set_ring_capture(true);
}

/// Disables the ring and drops its contents.
pub fn disable_ring() {
    RING_ON.store(false, Ordering::Relaxed);
    crate::span::set_ring_capture(false);
    *ring().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Pushes one completed span line (called from the span layer; no-op when
/// the ring is off).
pub(crate) fn push_span_line(line: &str) {
    if !ring_enabled() {
        return;
    }
    let mut guard = ring().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(r) = guard.as_mut() {
        if r.lines.len() == r.capacity {
            r.lines.pop_front();
        }
        r.lines.push_back(line.to_string());
    }
}

/// The ring's current contents, oldest first (empty when the ring is off).
pub fn tracez_lines() -> Vec<String> {
    let guard = ring().lock().unwrap_or_else(PoisonError::into_inner);
    guard.as_ref().map(|r| r.lines.iter().cloned().collect()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_non_zero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn ctx_timestamps_are_monotone_and_anchored() {
        let ctx = TraceCtx::mint();
        let t1 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t2 = Instant::now();
        let a = ctx.ts_us_at(t1);
        let b = ctx.ts_us_at(t2);
        assert!(a >= ctx.submit_us);
        assert!(b >= a + 1_000, "2ms apart must be ≥1000µs apart: {a} vs {b}");
    }

    #[test]
    fn ring_keeps_last_n_lines() {
        let _g = crate::span::test_lock();
        enable_ring(3);
        for i in 0..5 {
            push_span_line(&format!("line{i}"));
        }
        assert_eq!(tracez_lines(), vec!["line2", "line3", "line4"]);
        disable_ring();
        assert!(tracez_lines().is_empty());
        push_span_line("ignored");
        assert!(tracez_lines().is_empty());
    }
}

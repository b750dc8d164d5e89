//! Client-side retry policy: bounded attempts, exponential backoff with
//! deterministic jitter, deadline-budget awareness.
//!
//! A [`RetryPolicy`] governs [`ServerHandle::predict_with_retry`] (in
//! process) and [`NetClient::predict_with_retry`] (remote). Both retry
//! only the **retryable** failure class marked in [`crate::wire`] —
//! `OVERLOADED` (transient queue pressure) and `UNAVAILABLE` (a dead
//! shard; the retry reroutes around it or lands on its respawn) — and
//! both reuse *one* request id across every attempt, so retries route
//! deterministically: the liveness-masked router sends the same id to the
//! same choice among whatever shards are live.
//!
//! The backoff before retry `k` is `base_backoff · 2^(k-1)`, capped at
//! [`MAX_BACKOFF`], minus up to [`jitter`](RetryPolicy::jitter) percent —
//! where the subtracted fraction is a *pure function* of the request id
//! and attempt number (splitmix64), not a random draw. Fleet-wide, ids
//! differ, so synchronized clients still de-correlate their retry storms;
//! test-wide, the schedule replays exactly.
//!
//! Deadline budget: when the caller passes a deadline, every attempt's
//! submission inherits only the *remaining* budget, and a backoff sleep
//! that would cross the deadline is never taken — the last error returns
//! instead. Retries can therefore never make a caller wait longer than
//! its deadline (the chaos suite asserts this).
//!
//! [`ServerHandle::predict_with_retry`]: crate::ServerHandle::predict_with_retry
//! [`NetClient::predict_with_retry`]: crate::NetClient::predict_with_retry

use crate::server::splitmix64;
use std::time::Duration;

/// Hard cap on a single backoff sleep, whatever the exponent says.
pub const MAX_BACKOFF: Duration = Duration::from_secs(1);

/// When and how often to retry a retryable serving failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first try; clamped to at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry (capped at
    /// [`MAX_BACKOFF`]).
    pub base_backoff: Duration,
    /// Percentage (0–100) of each backoff subtracted as deterministic
    /// jitter — derived from the request id and attempt number, so two
    /// clients retrying different ids de-correlate while a fixed id
    /// replays its exact schedule.
    pub jitter: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(5), jitter: 50 }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, no backoff. `predict_with_retry` under
    /// this policy behaves exactly like plain `predict`.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, base_backoff: Duration::ZERO, jitter: 0 }
    }

    /// Total attempts, never less than one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The backoff slept after attempt `attempt` (1-based) fails, for the
    /// request routed by `key`. Pure in `(self, attempt, key)`.
    pub fn backoff(&self, attempt: u32, key: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let full =
            self.base_backoff.checked_mul(1u32 << exp).unwrap_or(MAX_BACKOFF).min(MAX_BACKOFF);
        let jitter = u64::from(self.jitter.min(100));
        if jitter == 0 || full.is_zero() {
            return full;
        }
        // Top 53 bits of a splitmix64 draw → a uniform fraction in [0, 1),
        // deterministic per (key, attempt).
        let frac = (splitmix64(key ^ u64::from(attempt)) >> 11) as f64 / (1u64 << 53) as f64;
        full.mul_f64(1.0 - frac * jitter as f64 / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let p = RetryPolicy { max_attempts: 5, base_backoff: Duration::from_millis(4), jitter: 0 };
        assert_eq!(p.backoff(1, 9), Duration::from_millis(4));
        assert_eq!(p.backoff(2, 9), Duration::from_millis(8));
        assert_eq!(p.backoff(3, 9), Duration::from_millis(16));
        // The cap holds even for absurd exponents.
        assert_eq!(p.backoff(30, 9), MAX_BACKOFF);

        let j = RetryPolicy { jitter: 50, ..p };
        let b = j.backoff(2, 9);
        // Jitter subtracts at most 50%: the result sits in [4ms, 8ms].
        assert!(b <= Duration::from_millis(8) && b >= Duration::from_millis(4), "{b:?}");
        // Pure: same (attempt, key) → same backoff; different keys differ.
        assert_eq!(b, j.backoff(2, 9));
        assert_ne!(j.backoff(2, 9), j.backoff(2, 10));
    }

    #[test]
    fn attempts_clamp_and_none_is_one_shot() {
        assert_eq!(RetryPolicy { max_attempts: 0, ..RetryPolicy::default() }.attempts(), 1);
        assert_eq!(RetryPolicy::none().attempts(), 1);
        assert_eq!(RetryPolicy::none().backoff(1, 7), Duration::ZERO);
    }
}

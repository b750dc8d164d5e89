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
//! its deadline (the chaos suite asserts this). Both clients run this one
//! loop, `RetryPolicy::run`; each supplies only its attempt and its
//! retryable class.
//!
//! [`ServerHandle::predict_with_retry`]: crate::ServerHandle::predict_with_retry
//! [`NetClient::predict_with_retry`]: crate::NetClient::predict_with_retry

use crate::ServeError;
use lightts_obs::splitmix64;
use std::time::{Duration, Instant};

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

    /// Runs `attempt` until it succeeds, fails with an error `retryable`
    /// rejects, or the attempts run out, sleeping [`backoff`](Self::backoff)
    /// (jittered by `key`) between tries.
    ///
    /// Each call of `attempt` gets the remaining slice of `deadline`
    /// (`None` without one). A backoff that would end at or past the
    /// deadline is not slept: the error that prompted it returns at once.
    /// When the deadline has already passed before an attempt, the last
    /// error returns, or [`ServeError::DeadlineExceeded`] if there was none.
    pub(crate) fn run<T, E: From<ServeError>>(
        &self,
        key: u64,
        deadline: Option<Duration>,
        mut attempt: impl FnMut(Option<Duration>) -> Result<T, E>,
        retryable: impl Fn(&E) -> bool,
    ) -> Result<T, E> {
        let overall = deadline.map(|d| Instant::now() + d);
        let mut last = None;
        for n in 1..=self.attempts() {
            let left = overall.map(|dl| dl.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                break;
            }
            match attempt(left) {
                Err(e) if retryable(&e) && n < self.attempts() => {
                    let sleep = self.backoff(n, key);
                    if overall.is_some_and(|dl| Instant::now() + sleep >= dl) {
                        return Err(e);
                    }
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                    last = Some(e);
                }
                outcome => return outcome,
            }
        }
        Err(last.unwrap_or_else(|| ServeError::DeadlineExceeded.into()))
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

    fn overloaded() -> ServeError {
        ServeError::Overloaded { model: "m".into(), max_queue: 1 }
    }

    /// Runs `policy` over a scripted attempt that answers from `script` in
    /// order; returns the outcome and the deadline slices the attempts saw.
    fn scripted(
        policy: RetryPolicy,
        deadline: Option<Duration>,
        script: Vec<Result<u32, ServeError>>,
    ) -> (Result<u32, ServeError>, Vec<Option<Duration>>) {
        let mut script = script.into_iter();
        let mut seen = Vec::new();
        let out = policy.run(
            7,
            deadline,
            |left| {
                seen.push(left);
                script.next().expect("attempted more often than scripted")
            },
            ServeError::is_retryable,
        );
        (out, seen)
    }

    #[test]
    fn run_retries_retryable_failures_until_success() {
        let p = RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(1), jitter: 0 };
        let (out, seen) = scripted(p, None, vec![Err(overloaded()), Err(overloaded()), Ok(5)]);
        assert_eq!(out, Ok(5));
        assert_eq!(seen, vec![None; 3]);
    }

    #[test]
    fn run_stops_at_a_non_retryable_error() {
        let p = RetryPolicy { max_attempts: 3, base_backoff: Duration::from_millis(1), jitter: 0 };
        let (out, seen) = scripted(p, None, vec![Err(ServeError::Shutdown)]);
        assert_eq!(out, Err(ServeError::Shutdown));
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn run_never_sleeps_past_the_deadline() {
        // The first backoff (1 s) outlasts the whole 200 ms budget: the
        // error returns at once instead of sleeping.
        let p = RetryPolicy { max_attempts: 3, base_backoff: Duration::from_secs(1), jitter: 0 };
        let deadline = Duration::from_millis(200);
        let start = Instant::now();
        let (out, seen) = scripted(p, Some(deadline), vec![Err(overloaded())]);
        assert!(start.elapsed() < deadline, "slept {:?}", start.elapsed());
        assert_eq!(out, Err(overloaded()));
        assert_eq!(seen.len(), 1);
        assert!(seen[0].is_some_and(|left| left <= deadline));
    }

    #[test]
    fn run_under_none_tries_once() {
        let (out, seen) = scripted(RetryPolicy::none(), None, vec![Err(overloaded())]);
        assert_eq!(out, Err(overloaded()));
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn attempts_clamp_and_none_is_one_shot() {
        assert_eq!(RetryPolicy { max_attempts: 0, ..RetryPolicy::default() }.attempts(), 1);
        assert_eq!(RetryPolicy::none().attempts(), 1);
        assert_eq!(RetryPolicy::none().backoff(1, 7), Duration::ZERO);
    }
}

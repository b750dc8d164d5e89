//! Deterministic fault injection — failpoints.
//!
//! A *failpoint* is a named hook compiled into a recovery-critical code
//! path (the serve batch loop, the trainer epoch loop, the MOBO trial
//! loop, the checkpoint writer). In normal operation a hook costs exactly
//! one relaxed atomic load — the same discipline as the
//! [`span!`](crate::span)/[`event!`](crate::event) off switch. When armed,
//! a hook can be made to **panic** or to **return an injected error** on a
//! chosen hit, which is how the chaos tests prove that every shedding and
//! recovery path actually fires.
//!
//! ## Arming failpoints
//!
//! Via the environment (read once, at first use):
//!
//! ```text
//! LIGHTTS_FAILPOINTS=serve.batch=panic@3,mobo.trial=err@5
//! ```
//!
//! or programmatically (tests, embedders): [`set_failpoints`] /
//! [`clear_failpoints`]. The spec grammar is
//! `name=action[@n|%p][,name=action[@n|%p]…]` where `action` is `panic`
//! or `err`. The trigger suffix picks *when* the point fires:
//!
//! * no suffix — fire on every hit;
//! * `@n` (1-based) — fire *once*, on the `n`-th hit;
//! * `%p` (`0 < p ≤ 1`) — fire each hit independently with probability
//!   `p`, **deterministically**: whether hit `k` fires is a pure function
//!   of the seed ([`set_failpoint_seed`] / `LIGHTTS_FAILPOINT_SEED`, default
//!   `0x5EED`), the point name, and `k`, so a chaos soak replays its exact
//!   kill schedule under a fixed seed.
//!
//! The two suffixes are mutually exclusive per point.
//!
//! ## Using a failpoint in library code
//!
//! ```
//! # fn doit() -> Result<(), String> {
//! lightts_obs::failpoint::hit("mobo.trial").map_err(|what| what)?;
//! # Ok(())
//! # }
//! ```
//!
//! [`hit`] returns `Err(description)` for `err` actions (the caller maps
//! it into its own error type), panics for `panic` actions, and returns
//! `Ok(())` — after one relaxed load and nothing else — when no spec is
//! armed.

use crate::splitmix64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a descriptive message (exercises `catch_unwind` paths).
    Panic,
    /// Return an injected error from [`hit`] (exercises `Err` recovery).
    Err,
}

/// When an armed failpoint fires, parsed from the trigger suffix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// No suffix: fire on every hit.
    Every,
    /// `@n`: fire once, on the `n`-th hit (1-based).
    At(u64),
    /// `%p`: fire each hit independently with probability `p`, derived
    /// deterministically from (seed, point name, hit index).
    Prob(f64),
}

#[derive(Debug)]
struct Point {
    action: FailAction,
    trigger: Trigger,
    hits: u64,
}

struct FpState {
    armed: AtomicBool,
    /// Seed for `%p` probabilistic triggers (fixed in CI so a chaos soak
    /// replays its kill schedule).
    seed: AtomicU64,
    points: Mutex<HashMap<String, Point>>,
}

/// Default probabilistic-trigger seed when neither
/// `LIGHTTS_FAILPOINT_SEED` nor [`set_failpoint_seed`] picked one.
pub const DEFAULT_SEED: u64 = 0x5EED;

fn state() -> &'static FpState {
    static STATE: OnceLock<FpState> = OnceLock::new();
    STATE.get_or_init(|| {
        let seed = std::env::var("LIGHTTS_FAILPOINT_SEED")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_SEED);
        let st = FpState {
            armed: AtomicBool::new(false),
            seed: AtomicU64::new(seed),
            points: Mutex::new(HashMap::new()),
        };
        if let Ok(spec) = std::env::var("LIGHTTS_FAILPOINTS") {
            if !spec.is_empty() {
                match parse_spec(&spec) {
                    Ok(map) => {
                        *st.points.lock().unwrap_or_else(PoisonError::into_inner) = map;
                        st.armed.store(true, Ordering::Relaxed);
                    }
                    Err(e) => eprintln!("lightts-obs: ignoring LIGHTTS_FAILPOINTS: {e}"),
                }
            }
        }
        st
    })
}

fn parse_spec(spec: &str) -> Result<HashMap<String, Point>, String> {
    let mut map = HashMap::new();
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, rhs) = part.split_once('=').ok_or_else(|| format!("missing '=' in {part:?}"))?;
        let (action_str, trigger) = if let Some((a, n)) = rhs.split_once('@') {
            if a.contains('%') || n.contains('%') {
                return Err(format!("{part:?} mixes '@n' and '%p' triggers"));
            }
            let n: u64 = n.parse().map_err(|_| format!("bad hit index {n:?} in {part:?}"))?;
            if n == 0 {
                return Err(format!("hit index in {part:?} is 1-based, got 0"));
            }
            (a, Trigger::At(n))
        } else if let Some((a, p)) = rhs.split_once('%') {
            let p: f64 = p.parse().map_err(|_| format!("bad probability {p:?} in {part:?}"))?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("probability in {part:?} must be in (0, 1], got {p}"));
            }
            (a, Trigger::Prob(p))
        } else {
            (rhs, Trigger::Every)
        };
        let action = match action_str {
            "panic" => FailAction::Panic,
            "err" => FailAction::Err,
            other => return Err(format!("unknown action {other:?} in {part:?}")),
        };
        map.insert(name.trim().to_string(), Point { action, trigger, hits: 0 });
    }
    Ok(map)
}

/// FNV-1a, mixing a point's name into its probabilistic-trigger stream so
/// two `%p` points armed together draw independent (but each
/// deterministic) schedules.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Whether a `%p` trigger fires on hit `k`: a pure function of (seed,
/// name, k), so a fixed seed replays the exact same schedule.
fn prob_fires(seed: u64, name: &str, k: u64, p: f64) -> bool {
    let x = splitmix64(seed ^ name_hash(name) ^ k);
    // Map the top 53 bits to a uniform fraction in [0, 1).
    let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
    frac < p
}

/// Sets the seed for `%p` probabilistic triggers, overriding
/// `LIGHTTS_FAILPOINT_SEED` (which is read once, at first use). Does not
/// reset hit counts; re-arm via [`set_failpoints`] for a fresh schedule.
pub fn set_failpoint_seed(seed: u64) {
    state().seed.store(seed, Ordering::Relaxed);
}

/// Arms failpoints from a spec string, replacing any previous arming and
/// resetting all hit counts. An empty spec disarms everything (same as
/// [`clear_failpoints`]). Overrides `LIGHTTS_FAILPOINTS`.
pub fn set_failpoints(spec: &str) -> Result<(), String> {
    let map = parse_spec(spec)?;
    let st = state();
    let armed = !map.is_empty();
    *st.points.lock().unwrap_or_else(PoisonError::into_inner) = map;
    st.armed.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarms all failpoints; [`hit`] reverts to its one-atomic-load fast
/// path.
pub fn clear_failpoints() {
    let st = state();
    st.armed.store(false, Ordering::Relaxed);
    st.points.lock().unwrap_or_else(PoisonError::into_inner).clear();
}

/// Whether any failpoint is armed (one relaxed atomic load).
pub fn armed() -> bool {
    state().armed.load(Ordering::Relaxed)
}

/// Number of times the named point has been hit since arming (0 if it is
/// not armed; diagnostics for chaos tests).
pub fn hits(name: &str) -> u64 {
    if !armed() {
        return 0;
    }
    state().points.lock().unwrap_or_else(PoisonError::into_inner).get(name).map_or(0, |p| p.hits)
}

/// Marks a failpoint. Disabled cost: one relaxed atomic load.
///
/// When the named point is armed this increments its hit count and, if the
/// firing condition holds, either panics ([`FailAction::Panic`]) or
/// returns an `Err` describing the injection ([`FailAction::Err`]).
#[inline]
pub fn hit(name: &str) -> Result<(), String> {
    if !armed() {
        return Ok(());
    }
    hit_slow(name)
}

#[cold]
fn hit_slow(name: &str) -> Result<(), String> {
    let st = state();
    let seed = st.seed.load(Ordering::Relaxed);
    let mut points = st.points.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(p) = points.get_mut(name) else { return Ok(()) };
    p.hits += 1;
    let fire = match p.trigger {
        Trigger::At(n) => p.hits == n,
        Trigger::Prob(prob) => prob_fires(seed, name, p.hits, prob),
        Trigger::Every => true,
    };
    if !fire {
        return Ok(());
    }
    let msg = format!("failpoint {name:?} fired (hit {})", p.hits);
    match p.action {
        FailAction::Err => Err(msg),
        FailAction::Panic => {
            drop(points); // never poison our own mutex
            panic!("{msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global failpoint table.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        crate::span::TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disarmed_hits_are_free_and_ok() {
        let _g = guard();
        clear_failpoints();
        assert!(!armed());
        assert!(hit("anything").is_ok());
        assert_eq!(hits("anything"), 0);
    }

    #[test]
    fn err_action_fires_once_at_index() {
        let _g = guard();
        set_failpoints("a.b=err@3").unwrap();
        assert!(hit("a.b").is_ok());
        assert!(hit("a.b").is_ok());
        let e = hit("a.b").unwrap_err();
        assert!(e.contains("a.b"), "{e}");
        // one-shot: subsequent hits pass
        assert!(hit("a.b").is_ok());
        assert_eq!(hits("a.b"), 4);
        // unarmed points are unaffected
        assert!(hit("other").is_ok());
        clear_failpoints();
    }

    #[test]
    fn err_without_index_fires_every_hit() {
        let _g = guard();
        set_failpoints("x=err").unwrap();
        assert!(hit("x").is_err());
        assert!(hit("x").is_err());
        clear_failpoints();
    }

    #[test]
    fn panic_action_panics_without_poisoning() {
        let _g = guard();
        set_failpoints("p=panic@1").unwrap();
        let r = std::panic::catch_unwind(|| hit("p"));
        assert!(r.is_err());
        // the table is still usable afterwards
        assert!(hit("p").is_ok());
        assert_eq!(hits("p"), 2);
        clear_failpoints();
    }

    #[test]
    fn rearming_resets_hit_counts() {
        let _g = guard();
        set_failpoints("a=err@2").unwrap();
        assert!(hit("a").is_ok());
        set_failpoints("a=err@2").unwrap();
        assert_eq!(hits("a"), 0);
        assert!(hit("a").is_ok());
        assert!(hit("a").is_err());
        clear_failpoints();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = guard();
        assert!(set_failpoints("noequals").is_err());
        assert!(set_failpoints("a=explode").is_err());
        assert!(set_failpoints("a=err@zero").is_err());
        assert!(set_failpoints("a=err@0").is_err());
        // probabilistic triggers: p must parse and sit in (0, 1]
        assert!(set_failpoints("a=err%zero").is_err());
        assert!(set_failpoints("a=err%0").is_err());
        assert!(set_failpoints("a=err%-0.5").is_err());
        assert!(set_failpoints("a=err%1.5").is_err());
        assert!(set_failpoints("a=err%NaN").is_err());
        // the two trigger suffixes are mutually exclusive
        assert!(set_failpoints("a=err@2%0.5").is_err());
        assert!(set_failpoints("a=err%0.5@2").is_err());
        // rejected specs must not arm anything
        assert!(!armed());
    }

    #[test]
    fn probabilistic_spec_parses_and_is_deterministic_under_a_seed() {
        let _g = guard();
        set_failpoint_seed(42);
        set_failpoints("p.q=err%0.5").unwrap();
        assert!(armed());
        let schedule: Vec<bool> = (0..64).map(|_| hit("p.q").is_err()).collect();
        // A 50% point over 64 hits fires at least once and passes at least
        // once (the seeded schedule is fixed, so this can never flake).
        assert!(schedule.iter().any(|&f| f));
        assert!(schedule.iter().any(|&f| !f));
        // Re-arming under the same seed replays the exact schedule.
        set_failpoints("p.q=err%0.5").unwrap();
        let replay: Vec<bool> = (0..64).map(|_| hit("p.q").is_err()).collect();
        assert_eq!(schedule, replay);
        // A different seed draws a different schedule (for these seeds).
        set_failpoint_seed(43);
        set_failpoints("p.q=err%0.5").unwrap();
        let other: Vec<bool> = (0..64).map(|_| hit("p.q").is_err()).collect();
        assert_ne!(schedule, other);
        // p = 1 fires on every hit.
        set_failpoints("p.q=err%1.0").unwrap();
        assert!(hit("p.q").is_err());
        assert!(hit("p.q").is_err());
        set_failpoint_seed(DEFAULT_SEED);
        clear_failpoints();
    }

    #[test]
    fn probabilistic_points_draw_independent_schedules_per_name() {
        let _g = guard();
        set_failpoint_seed(7);
        set_failpoints("alpha=err%0.5,beta=err%0.5").unwrap();
        let a: Vec<bool> = (0..64).map(|_| hit("alpha").is_err()).collect();
        let b: Vec<bool> = (0..64).map(|_| hit("beta").is_err()).collect();
        assert_ne!(a, b, "two %p points must not share one schedule");
        set_failpoint_seed(DEFAULT_SEED);
        clear_failpoints();
    }

    #[test]
    fn multi_point_specs_parse() {
        let _g = guard();
        set_failpoints("serve.batch=panic@3, mobo.trial=err@5").unwrap();
        assert!(armed());
        assert!(hit("mobo.trial").is_ok());
        assert_eq!(hits("mobo.trial"), 1);
        assert_eq!(hits("serve.batch"), 0);
        clear_failpoints();
    }
}

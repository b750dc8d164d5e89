//! An always-cheap hierarchical profiler.
//!
//! [`scope`] opens an RAII timer named after its call site; nested scopes
//! build a dotted-at-semicolons *stack path* (`serve.forward;plan.forward;conv.lowered_fwd`)
//! and every completed scope adds its wall-clock to a process-global,
//! path-keyed call tree (cumulative nanoseconds + hit count per path).
//! [`render_collapsed`] dumps the tree in the collapsed-stack format that
//! `flamegraph.pl` and speedscope consume directly — one line per path,
//! value = **self** nanoseconds (cumulative minus direct children), so the
//! flamegraph's visual widths are correct without double counting.
//!
//! ## The off switch
//!
//! Profiling follows the `LIGHTTS_PROF` environment variable (same contract
//! as `LIGHTTS_OBS`): unset/`0`/`off`/`false` disables it, anything else
//! enables it, and [`set_enabled`] overrides programmatically. When off, a
//! [`scope`] costs exactly **one relaxed atomic load** — no clock read, no
//! thread-local access, no allocation, and crucially **no tree nodes are
//! ever created** ([`node_count`] stays 0; a regression test pins this).
//! The hooks therefore live permanently inside matmul, the conv kernels,
//! the quantized kernels, and the serve forward, and a live
//! process answers "where did the milliseconds go" the moment
//! `LIGHTTS_PROF=1` (or [`set_enabled`]`(true)`) is in effect — no rerun,
//! no recompile.
//!
//! ## Aggregation model
//!
//! Each thread keeps its own current stack, but all threads aggregate into
//! one global tree keyed by the full stack path, so identical paths merge
//! across threads exactly like merged flamegraph samples. The per-(thread, path) node handle is cached thread-locally
//! after the first hit; the steady-state enter/exit cost is a thread-local
//! lookup plus two relaxed atomic adds.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One aggregated call-tree node (shared by every thread that visits the
/// same stack path).
#[derive(Debug, Default)]
struct Node {
    /// Cumulative wall-clock spent inside this path, nanoseconds.
    cum_ns: AtomicU64,
    /// Completed visits.
    hits: AtomicU64,
}

/// The global tree: full stack path → node. Locked only on the first visit
/// of a path per thread (thereafter the handle comes from a thread-local
/// cache); the hot path is atomics only.
fn tree() -> &'static Mutex<HashMap<String, Arc<Node>>> {
    static TREE: OnceLock<Mutex<HashMap<String, Arc<Node>>>> = OnceLock::new();
    TREE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = match std::env::var("LIGHTTS_PROF") {
            Err(_) => false,
            Ok(v) => !matches!(v.as_str(), "" | "0" | "off" | "false"),
        };
        AtomicBool::new(on)
    })
}

/// Whether profiling is on — one relaxed atomic load, the permanent
/// hot-path check inside every instrumented kernel.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns profiling on or off, overriding `LIGHTTS_PROF`.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

thread_local! {
    /// This thread's current stack path and its path→node handle cache.
    static STACK: RefCell<ThreadStack> = RefCell::new(ThreadStack::default());
}

#[derive(Default)]
struct ThreadStack {
    /// Current stack path, segments joined by `;`.
    path: String,
    /// Byte length of `path` before each open scope (for truncate-on-exit).
    marks: Vec<usize>,
    /// Path → node cache so the global mutex is off the steady-state path.
    cache: HashMap<String, Arc<Node>>,
}

impl ThreadStack {
    fn enter(&mut self, name: &'static str) -> Arc<Node> {
        self.marks.push(self.path.len());
        if !self.path.is_empty() {
            self.path.push(';');
        }
        self.path.push_str(name);
        if let Some(n) = self.cache.get(&self.path) {
            return Arc::clone(n);
        }
        let node = {
            let mut t = tree().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(t.entry(self.path.clone()).or_default())
        };
        self.cache.insert(self.path.clone(), Arc::clone(&node));
        node
    }

    fn exit(&mut self) {
        if let Some(mark) = self.marks.pop() {
            self.path.truncate(mark);
        }
    }
}

/// An open profiling scope; closes (and records) on drop.
///
/// Inert — holding no node, reading no clock — when profiling is off.
/// `!Send`: a scope must close on the thread that opened it (its stack
/// bookkeeping is thread-local).
pub struct ProfGuard(Option<(Arc<Node>, Instant)>, std::marker::PhantomData<*const ()>);

/// Opens a profiling scope named `name` under the thread's current stack.
///
/// `name` should be a short dotted identifier (`gemm.matmul`,
/// `conv.lowered_fwd`); `;` is reserved as the stack separator and must not
/// appear in it.
#[inline]
pub fn scope(name: &'static str) -> ProfGuard {
    if !enabled() {
        return ProfGuard(None, std::marker::PhantomData);
    }
    let node = STACK.with(|s| s.borrow_mut().enter(name));
    ProfGuard(Some((node, Instant::now())), std::marker::PhantomData)
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        let Some((node, start)) = self.0.take() else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        node.cum_ns.fetch_add(ns, Ordering::Relaxed);
        node.hits.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().exit());
    }
}

/// One row of [`snapshot`]: a stack path with its aggregated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfEntry {
    /// Full stack path, segments joined by `;`.
    pub path: String,
    /// Cumulative nanoseconds inside this path (including children).
    pub cum_ns: u64,
    /// Nanoseconds not attributed to any direct child (`cum − Σ children`,
    /// clamped at 0 against concurrent-update skew).
    pub self_ns: u64,
    /// Completed visits.
    pub hits: u64,
}

/// Number of distinct stack paths in the tree (0 until the first enabled
/// scope completes — the zero-overhead regression test's assertion).
pub fn node_count() -> usize {
    tree().lock().unwrap_or_else(std::sync::PoisonError::into_inner).len()
}

/// Clears the tree (tests; live use never needs it — the tree only grows
/// with distinct paths, not with samples).
pub fn reset() {
    tree().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    // Thread-local caches may still hold handles to orphaned nodes; those
    // nodes keep accumulating harmlessly but are no longer rendered. Tests
    // that reset must re-enter scopes from a fresh path set anyway.
}

/// A consistent-by-path dump of the whole tree, path-sorted.
pub fn snapshot() -> Vec<ProfEntry> {
    let rows: Vec<(String, u64, u64)> = {
        let t = tree().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        t.iter()
            .map(|(p, n)| {
                (p.clone(), n.cum_ns.load(Ordering::Relaxed), n.hits.load(Ordering::Relaxed))
            })
            .collect()
    };
    let mut out: Vec<ProfEntry> = rows
        .iter()
        .map(|(path, cum, hits)| {
            let prefix = format!("{path};");
            let children: u64 = rows
                .iter()
                .filter(|(p, _, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains(';'))
                .map(|(_, c, _)| *c)
                .sum();
            ProfEntry {
                path: path.clone(),
                cum_ns: *cum,
                self_ns: cum.saturating_sub(children),
                hits: *hits,
            }
        })
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Renders the tree as collapsed stacks: one `path self_ns` line per path
/// with non-zero self time, ready for `flamegraph.pl` (value unit:
/// nanoseconds). Empty string when nothing has been profiled.
pub fn render_collapsed() -> String {
    let mut out = String::new();
    for e in snapshot() {
        if e.self_ns > 0 {
            out.push_str(&e.path);
            out.push(' ');
            out.push_str(&e.self_ns.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the global enabled flag + tree.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scopes_create_no_nodes() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _a = scope("test_prof_off.outer");
            let _b = scope("test_prof_off.inner");
        }
        assert_eq!(
            snapshot().iter().filter(|e| e.path.contains("test_prof_off")).count(),
            0,
            "disabled profiling must not allocate tree nodes"
        );
    }

    #[test]
    fn nested_scopes_build_stack_paths_with_self_time() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _a = scope("tp.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _b = scope("tp.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let outer = snap.iter().find(|e| e.path == "tp.outer").expect("outer node");
        let inner = snap.iter().find(|e| e.path == "tp.outer;tp.inner").expect("nested node");
        assert_eq!(outer.hits, 1);
        assert_eq!(inner.hits, 1);
        assert!(outer.cum_ns >= inner.cum_ns, "parent cum covers child");
        assert!(
            outer.self_ns <= outer.cum_ns - inner.cum_ns + 1,
            "self excludes the direct child: {outer:?} vs {inner:?}"
        );
        let dump = render_collapsed();
        assert!(dump.contains("tp.outer;tp.inner "), "{dump}");
        for line in dump.lines() {
            let (path, val) = line.rsplit_once(' ').expect("`path value` shape");
            assert!(!path.is_empty());
            val.parse::<u64>().expect("numeric self-ns");
        }
    }

    #[test]
    fn sibling_scopes_do_not_nest() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _a = scope("ts.first");
        }
        {
            let _b = scope("ts.second");
        }
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.iter().any(|e| e.path == "ts.first"));
        assert!(snap.iter().any(|e| e.path == "ts.second"));
        assert!(!snap.iter().any(|e| e.path.contains("ts.first;ts.second")));
    }

    #[test]
    fn threads_merge_into_one_tree_by_path() {
        let _g = guard();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = scope("tm.kernel");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let snap = snapshot();
        let k = snap.iter().find(|e| e.path == "tm.kernel").expect("merged node");
        assert_eq!(k.hits, 4, "4 threads → 4 hits on one merged path");
    }
}

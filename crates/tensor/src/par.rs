//! Parallel execution layer for the tensor kernels.
//!
//! This module provides a small persistent thread pool plus the helpers the
//! convolution / matmul / elementwise kernels use to fan work out across
//! cores. It exists because the build environment vendors every dependency,
//! so a `rayon`-style work-stealing runtime is not available; the pool here
//! implements the subset the kernels need:
//!
//! * [`par_for`] — run `f(i)` for every index in `0..n`, work distributed
//!   over the pool with an atomic chunk counter (the calling thread
//!   participates, so one-thread configurations never context-switch);
//! * [`par_for_rows`] — split one mutable output buffer into disjoint
//!   fixed-size rows and hand each row to a closure, the pattern every
//!   kernel with an output tensor fits;
//! * [`chunked_sum`] — deterministic chunked reduction (see below).
//!
//! # Determinism
//!
//! Parallel kernels in this crate are required to produce **bitwise
//! identical** results regardless of thread count, so one thread
//! (`LIGHTTS_NUM_THREADS=1`) is the serial oracle. Kernels achieve this by
//! only parallelising over *disjoint output rows* whose per-element
//! accumulation order is unchanged, and by running reductions in fixed-size
//! chunks that are combined in chunk order. The property tests in
//! `tests/parallel_equivalence.rs` assert the agreement.
//!
//! # Configuration
//!
//! Thread count resolution order:
//! 1. [`set_num_threads`] (also exposed as `lightts::runtime::set_num_threads`),
//! 2. the `LIGHTTS_NUM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! With one thread, or below [`MIN_PARALLEL_WORK`], every helper runs its
//! serial loop on the calling thread.
//!
//! # Interaction with the buffer pool
//!
//! Worker threads never construct or drop [`crate::Tensor`]s — kernels hand
//! them borrowed `&mut [f32]` rows only. All [`crate::pool`] takes and
//! recycles therefore happen on the thread driving the kernel, which keeps
//! the pool's thread-local free lists coherent (no slab ever migrates to a
//! worker's list) and the allocation-free steady state independent of the
//! thread count.

// The crate denies unsafe code; this module is the one audited exception —
// the pool erases a closure lifetime (re-bound before returning) and splits
// one output buffer into disjoint per-row windows.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicitly configured thread count; 0 means "not set".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of threads tensor kernels may use (including the calling
/// thread). `n = 1` forces fully serial execution; `n = 0` resets to
/// automatic detection (`LIGHTTS_NUM_THREADS`, then available
/// parallelism). Takes effect for all subsequent kernel invocations;
/// threads already spawned stay parked but receive no work beyond the
/// configured count.
pub fn set_num_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::SeqCst);
}

/// The number of threads kernels will use for sufficiently large work.
///
/// Resolution order: [`set_num_threads`], then `LIGHTTS_NUM_THREADS`, then
/// the machine's available parallelism. Always at least 1.
pub fn num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::SeqCst);
    if configured != 0 {
        return configured;
    }
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    *FALLBACK.get_or_init(|| {
        std::env::var("LIGHTTS_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Minimum number of scalar operations a kernel call must involve before the
/// pool is engaged; below this the fixed cost of waking workers exceeds the
/// win. Tuned coarsely — the exact value only shifts where tiny ops stay
/// serial, never affects results.
pub const MIN_PARALLEL_WORK: usize = 16 * 1024;

mod pool {
    use super::{num_threads, MIN_PARALLEL_WORK};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    std::thread_local! {
        /// True on pool worker threads; prevents nested parallelism from
        /// deadlocking by forcing inner kernels to run serially.
        static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// One broadcast work item: indices `0..total` are claimed from `next`
    /// by whichever thread gets there first.
    #[derive(Clone)]
    struct Job {
        /// The per-index closure. Lifetime is erased: `run` guarantees the
        /// referent outlives the job by draining all workers before
        /// returning.
        func: &'static (dyn Fn(usize) + Sync),
        next: Arc<AtomicUsize>,
        total: usize,
        /// How many pool workers may join this job, so a pool larger than
        /// the configured thread count never exceeds it.
        max_helpers: usize,
        panicked: Arc<AtomicBool>,
    }

    struct State {
        job: Option<Job>,
        generation: u64,
        running: usize,
    }

    struct Shared {
        state: Mutex<State>,
        work_cv: Condvar,
        done_cv: Condvar,
    }

    struct Pool {
        shared: Arc<Shared>,
        workers: usize,
    }

    fn execute(job: &Job) {
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.total {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| (job.func)(i))).is_err() {
                job.panicked.store(true, Ordering::SeqCst);
            }
        }
    }

    fn worker_loop(shared: Arc<Shared>) {
        IS_WORKER.with(|w| w.set(true));
        let mut last_generation = 0u64;
        loop {
            let job = {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.generation != last_generation {
                        last_generation = st.generation;
                        if let Some(job) = st.job.clone() {
                            if st.running < job.max_helpers {
                                st.running += 1;
                                break job;
                            }
                        }
                    }
                    st = shared.work_cv.wait(st).unwrap();
                }
            };
            execute(&job);
            let mut st = shared.state.lock().unwrap();
            st.running -= 1;
            if st.running == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Parked workers kept even on small machines, so forced thread counts
    /// (tests, `LIGHTTS_NUM_THREADS` larger than the core count) genuinely
    /// execute multi-threaded. Idle workers sleep on a condvar; the only
    /// cost of the floor is a few parked threads.
    const MIN_POOL_WORKERS: usize = 4;

    /// The process-wide pool, created on the first parallel kernel call
    /// with `max(num_threads(), MIN_POOL_WORKERS) - 1` workers (the caller
    /// is the remaining thread). The pool size is fixed at creation; each
    /// job's `max_helpers` keeps the *active* count at the configured
    /// `num_threads()`, so later `set_num_threads` calls up to the pool
    /// size take full effect and larger values are capped.
    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = num_threads().max(MIN_POOL_WORKERS).saturating_sub(1);
            let shared = Arc::new(Shared {
                state: Mutex::new(State { job: None, generation: 0, running: 0 }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            });
            for i in 0..workers {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lightts-par-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn lightts worker thread");
            }
            Pool { shared, workers }
        })
    }

    /// Whether a kernel with `chunks` independent pieces totalling roughly
    /// `total_work` scalar ops should engage the pool.
    pub fn should_parallelize(chunks: usize, total_work: usize) -> bool {
        chunks >= 2
            && total_work >= MIN_PARALLEL_WORK
            && num_threads() > 1
            && !IS_WORKER.with(|w| w.get())
    }

    /// Runs `func(i)` for all `i in 0..total` across the pool. The calling
    /// thread participates; returns once every index has completed.
    pub fn run(total: usize, func: &(dyn Fn(usize) + Sync)) {
        let pool = pool();
        let max_helpers = num_threads().saturating_sub(1).min(pool.workers);
        if max_helpers == 0 {
            for i in 0..total {
                func(i);
            }
            return;
        }
        let job = Job {
            // Safety: the job is dropped from the pool state and all
            // workers are drained before this function returns, so the
            // borrow never escapes the caller's stack frame.
            func: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    func,
                )
            },
            next: Arc::new(AtomicUsize::new(0)),
            total,
            max_helpers,
            panicked: Arc::new(AtomicBool::new(false)),
        };
        {
            let mut st = pool.shared.state.lock().unwrap();
            st.job = Some(job.clone());
            st.generation += 1;
            pool.shared.work_cv.notify_all();
        }
        execute(&job);
        {
            let mut st = pool.shared.state.lock().unwrap();
            st.job = None;
            while st.running > 0 {
                st = pool.shared.done_cv.wait(st).unwrap();
            }
        }
        if job.panicked.load(Ordering::SeqCst) {
            panic!("a lightts-tensor parallel kernel panicked on a worker thread");
        }
    }
}

/// Pointer wrapper asserting that concurrent uses touch disjoint regions.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs `f(i)` for every `i in 0..n`.
///
/// `work_per_index` is a rough per-index scalar-op estimate used by the
/// parallelism threshold. `f` must be safe to call concurrently for
/// distinct indices.
pub fn par_for(n: usize, work_per_index: usize, f: impl Fn(usize) + Sync) {
    if pool::should_parallelize(n, n.saturating_mul(work_per_index)) {
        pool::run(n, &f);
        return;
    }
    for i in 0..n {
        f(i);
    }
}

/// Splits `out` into disjoint consecutive rows of `row_len` elements and
/// runs `f(row_index, row)` for each, in parallel when worthwhile.
///
/// Panics if `out.len()` is not a multiple of `row_len`. `work_per_row`
/// estimates the scalar ops needed to fill one row (for the threshold).
pub fn par_for_rows<F>(out: &mut [f32], row_len: usize, work_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    assert!(row_len > 0 && out.len() % row_len == 0, "par_for_rows: ragged rows");
    let rows = out.len() / row_len;
    if pool::should_parallelize(rows, rows.saturating_mul(work_per_row)) {
        let base = SendPtr(out.as_mut_ptr());
        pool::run(rows, &|r| {
            // Capture the Sync wrapper, not the raw field.
            let base = base;
            // Safety: each row index is claimed exactly once, and rows are
            // disjoint `row_len`-sized windows of `out`.
            let row = unsafe { std::slice::from_raw_parts_mut(base.0.add(r * row_len), row_len) };
            f(r, row);
        });
        return;
    }
    for (r, row) in out.chunks_exact_mut(row_len).enumerate() {
        f(r, row);
    }
}

/// Splits `out` into consecutive chunks of at most `chunk` elements (the
/// last chunk may be shorter) and runs `f(chunk_index, chunk)` for each.
///
/// The elementwise kernels use this with position-independent `f`, so the
/// result never depends on the chunking or the thread count.
pub fn par_for_chunks<F>(out: &mut [f32], chunk: usize, work_per_elem: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "par_for_chunks: zero chunk size");
    let len = out.len();
    let n_chunks = len.div_ceil(chunk);
    if pool::should_parallelize(n_chunks, len.saturating_mul(work_per_elem)) {
        let base = SendPtr(out.as_mut_ptr());
        pool::run(n_chunks, &|c| {
            let base = base; // capture the Sync wrapper, not the raw field
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            // Safety: chunk indices are claimed exactly once and the
            // [lo, hi) windows are pairwise disjoint.
            let piece = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
            f(c, piece);
        });
        return;
    }
    for (c, piece) in out.chunks_mut(chunk).enumerate() {
        f(c, piece);
    }
}

/// Chunk size for deterministic reductions. Fixed (never derived from the
/// thread count) so that results are identical no matter how many threads
/// run; tensors smaller than one chunk reduce exactly like a plain
/// left-to-right loop.
pub const REDUCE_CHUNK: usize = 8192;

/// Sums `data` by reducing fixed-size chunks left-to-right and then
/// combining the chunk partials in order.
///
/// Both the serial and the parallel path use this exact association, so
/// `Tensor::sum` is bitwise reproducible across thread counts.
pub fn chunked_sum(data: &[f32]) -> f32 {
    let n_chunks = data.len().div_ceil(REDUCE_CHUNK).max(1);
    if n_chunks == 1 {
        return data.iter().sum();
    }
    let mut partials = vec![0.0f32; n_chunks];
    par_for_rows(&mut partials, 1, REDUCE_CHUNK, |c, out| {
        let chunk = &data[c * REDUCE_CHUNK..((c + 1) * REDUCE_CHUNK).min(data.len())];
        out[0] = chunk.iter().sum();
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        par_for(hits.len(), MIN_PARALLEL_WORK, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn par_for_rows_fills_disjoint_rows() {
        let mut out = vec![0.0f32; 64 * 33];
        par_for_rows(&mut out, 33, MIN_PARALLEL_WORK, |r, row| {
            for (t, v) in row.iter_mut().enumerate() {
                *v = (r * 100 + t) as f32;
            }
        });
        for r in 0..64 {
            for t in 0..33 {
                assert_eq!(out[r * 33 + t], (r * 100 + t) as f32);
            }
        }
    }

    #[test]
    fn chunked_sum_matches_plain_sum_small() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        let plain: f32 = data.iter().sum();
        assert_eq!(chunked_sum(&data), plain);
    }

    #[test]
    fn chunked_sum_is_reproducible_large() {
        let data: Vec<f32> = (0..3 * REDUCE_CHUNK + 17).map(|i| (i as f32).sin()).collect();
        let a = chunked_sum(&data);
        let b = chunked_sum(&data);
        assert_eq!(a.to_bits(), b.to_bits());
        let plain: f32 = data.iter().sum();
        assert!((a - plain).abs() < 1e-2 * plain.abs().max(1.0));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        // Force real multi-threading even on single-core hosts: the pool
        // always keeps MIN_POOL_WORKERS parked workers available.
        set_num_threads(2);
        let result = std::panic::catch_unwind(|| {
            par_for(1024, MIN_PARALLEL_WORK, |i| {
                if i == 700 {
                    panic!("boom");
                }
            });
        });
        set_num_threads(0);
        assert!(result.is_err());
    }
}

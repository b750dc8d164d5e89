//! Grow-only buffer pool: size-bucketed `Vec<f32>` slabs reused across ops.
//!
//! Every transient `f32` buffer that ends up owned by a [`Tensor`](crate::Tensor) is taken
//! from this pool and returned to it when the tensor drops (see the manual
//! `Drop`/`Clone` impls in `tensor.rs`). The pool is the memory half of the
//! GEMM-lowered kernel work: once a steady-state training step has warmed the
//! pool, every conv/matmul/elementwise op is served from recycled slabs and
//! the step performs **zero transient heap allocations** — asserted by the
//! repo-level `allocation_regression` test via the miss counter below.
//!
//! Design:
//! - **Thread-local buckets.** Each thread owns a private free list, so takes
//!   and recycles are lock-free `RefCell` operations. Kernels run on the
//!   calling thread, so only the thread driving a training or serving loop
//!   touches its pool — there is no cross-thread migration and no
//!   shared-state contention.
//! - **Power-of-two buckets.** A request for `n` elements is served from the
//!   bucket of capacity `2^ceil(log2 n)`; recycled vectors are filed under
//!   `floor(log2 capacity)`, which guarantees every resident of bucket `b`
//!   has capacity ≥ `2^b`. A miss allocates exactly `2^ceil(log2 n)` so the
//!   slab is maximally reusable.
//! - **Grow-only.** Slabs are never freed while the thread lives; the pool's
//!   footprint is bounded by the high-water mark of simultaneously-live
//!   buffers, not by the number of ops executed. A thread's free lists are
//!   freed when it exits, and their bytes leave [`pool_held_bytes`] then.
//!
//! Only allocations that deterministically return to the pool are routed
//! through it: a `take_*` whose buffer escapes as a plain `Vec<f32>` would
//! drain the pool by one slab per iteration and show up as steady-state
//! misses. Code that hands vectors to callers (serve reply rows, folded
//! batch-norm coefficients, [`Tensor::into_vec`](crate::Tensor::into_vec)) therefore uses ordinary
//! allocation.
//!
//! Counters (process-global, relaxed atomics, mirroring
//! [`crate::tape::tapes_created`]): [`pool_hits`], [`pool_misses`],
//! [`pool_held_bytes`] (bytes currently parked in free lists) and
//! [`pool_high_water_bytes`] (maximum ever parked — exported as a gauge by
//! the serve crate so deployment memory is observable). Each has a
//! `thread_` twin counting only the calling thread's pool.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// One bucket per possible power-of-two capacity class on a 64-bit host.
const BUCKETS: usize = 48;

static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static POOL_HELD_BYTES: AtomicU64 = AtomicU64::new(0);
static POOL_HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's parked slabs, one free list per bucket.
struct FreeLists(Vec<Vec<Vec<f32>>>);

impl Drop for FreeLists {
    /// The thread is exiting and its slabs are freed with it: they leave
    /// the process-wide held count.
    fn drop(&mut self) {
        let bytes: usize = self.0.iter().flatten().map(|v| v.capacity() * 4).sum();
        POOL_HELD_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

thread_local! {
    static FREE_LISTS: RefCell<FreeLists> =
        RefCell::new(FreeLists((0..BUCKETS).map(|_| Vec::new()).collect()));
    // Per-thread twins of the four counters: a test asserts *its own* pool
    // traffic on these while other test threads take and recycle slabs.
    static LOCAL_HITS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_MISSES: Cell<u64> = const { Cell::new(0) };
    static LOCAL_HELD_BYTES: Cell<u64> = const { Cell::new(0) };
    static LOCAL_HIGH_WATER_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bucket index a vector of capacity `cap` is filed under (floor log2).
fn floor_bucket(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Bucket index a request for `n` elements is served from (ceil log2).
fn ceil_bucket(n: usize) -> usize {
    debug_assert!(n > 0);
    let b = floor_bucket(n);
    if n.is_power_of_two() {
        b
    } else {
        b + 1
    }
}

/// Takes a slab with capacity ≥ `n` and length 0 from the calling thread's
/// pool, allocating a fresh power-of-two slab on a miss. `n == 0` returns an
/// (allocation-free) empty vector without touching the counters.
pub fn take_empty(n: usize) -> Vec<f32> {
    if n == 0 {
        return Vec::new();
    }
    let b = ceil_bucket(n);
    let got = FREE_LISTS.with(|fl| {
        let fl = &mut fl.borrow_mut().0;
        if let Some(mut v) = fl[b].pop() {
            v.clear();
            return Some(v);
        }
        // Every resident of bucket b-1 has capacity in [2^(b-1), 2^b); when n
        // is not a power of two some of those may still satisfy it.
        if b > 0 && !n.is_power_of_two() {
            let lower = &mut fl[b - 1];
            for i in (0..lower.len()).rev() {
                if lower[i].capacity() >= n {
                    let mut v = lower.swap_remove(i);
                    v.clear();
                    return Some(v);
                }
            }
        }
        None
    });
    match got {
        Some(v) => {
            let bytes = (v.capacity() * 4) as u64;
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            POOL_HELD_BYTES.fetch_sub(bytes, Ordering::Relaxed);
            LOCAL_HITS.set(LOCAL_HITS.get() + 1);
            LOCAL_HELD_BYTES.set(LOCAL_HELD_BYTES.get() - bytes);
            v
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            LOCAL_MISSES.set(LOCAL_MISSES.get() + 1);
            Vec::with_capacity(1usize << b)
        }
    }
}

/// Takes a slab of exactly `n` zeroed elements.
pub fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take_empty(n);
    v.resize(n, 0.0);
    v
}

/// Takes a slab of exactly `n` elements, all equal to `fill`.
pub fn take_filled(n: usize, fill: f32) -> Vec<f32> {
    let mut v = take_empty(n);
    v.resize(n, fill);
    v
}

/// Takes a slab holding a copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_empty(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a slab to the calling thread's pool. Zero-capacity vectors (which
/// never allocated) are dropped without touching the counters.
pub fn recycle(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    let bytes = (cap * 4) as u64;
    FREE_LISTS.with(|fl| fl.borrow_mut().0[floor_bucket(cap)].push(v));
    let held = POOL_HELD_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    POOL_HIGH_WATER_BYTES.fetch_max(held, Ordering::Relaxed);
    let local = LOCAL_HELD_BYTES.get() + bytes;
    LOCAL_HELD_BYTES.set(local);
    LOCAL_HIGH_WATER_BYTES.set(LOCAL_HIGH_WATER_BYTES.get().max(local));
}

/// Number of pool requests served from a free list since process start.
pub fn pool_hits() -> u64 {
    POOL_HITS.load(Ordering::Relaxed)
}

/// Number of pool requests that fell through to the allocator since process
/// start. Steady-state training steps must not move this counter — see the
/// `allocation_regression` test.
pub fn pool_misses() -> u64 {
    POOL_MISSES.load(Ordering::Relaxed)
}

/// [`pool_hits`] of the *calling thread* alone.
pub fn thread_pool_hits() -> u64 {
    LOCAL_HITS.get()
}

/// Number of pool misses charged to the *calling thread* since it started.
/// Unlike the process-global [`pool_misses`], this is immune to concurrent
/// threads (e.g. other tests in the same binary) warming their own pools, so
/// single-thread steady-state assertions use it.
pub fn thread_pool_misses() -> u64 {
    LOCAL_MISSES.get()
}

/// Bytes currently parked in free lists across all threads.
pub fn pool_held_bytes() -> u64 {
    POOL_HELD_BYTES.load(Ordering::Relaxed)
}

/// [`pool_held_bytes`] of the *calling thread's* free lists alone.
pub fn thread_pool_held_bytes() -> u64 {
    LOCAL_HELD_BYTES.get()
}

/// Maximum value [`pool_held_bytes`] has ever reached.
pub fn pool_high_water_bytes() -> u64 {
    POOL_HIGH_WATER_BYTES.load(Ordering::Relaxed)
}

/// Maximum value [`thread_pool_held_bytes`] has ever reached.
pub fn thread_pool_high_water_bytes() -> u64 {
    LOCAL_HIGH_WATER_BYTES.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math() {
        assert_eq!(floor_bucket(1), 0);
        assert_eq!(floor_bucket(2), 1);
        assert_eq!(floor_bucket(3), 1);
        assert_eq!(floor_bucket(4), 2);
        assert_eq!(ceil_bucket(1), 0);
        assert_eq!(ceil_bucket(2), 1);
        assert_eq!(ceil_bucket(3), 2);
        assert_eq!(ceil_bucket(4), 2);
        assert_eq!(ceil_bucket(5), 3);
    }

    #[test]
    fn recycled_slab_is_reused() {
        let before = thread_pool_misses();
        let v = take_zeroed(100);
        assert!(v.capacity() >= 128, "miss should allocate the full bucket");
        let cap = v.capacity();
        recycle(v);
        let w = take_zeroed(100);
        assert_eq!(w.capacity(), cap);
        assert_eq!(w.len(), 100);
        assert!(w.iter().all(|&x| x == 0.0));
        // Exactly one of the two takes missed (the first — unless an earlier
        // test on this thread already parked a 128-slab, in which case zero).
        assert!(thread_pool_misses() - before <= 1);
        recycle(w);
    }

    #[test]
    fn take_respects_requested_length() {
        let v = take_filled(5, 2.5);
        assert_eq!(v, vec![2.5; 5]);
        recycle(v);
        let v = take_copy(&[1.0, 2.0, 3.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        recycle(v);
    }

    #[test]
    fn zero_sized_takes_do_not_allocate() {
        let (h0, m0) = (thread_pool_hits(), thread_pool_misses());
        let v = take_empty(0);
        assert_eq!(v.capacity(), 0);
        recycle(v);
        assert_eq!((thread_pool_hits(), thread_pool_misses()), (h0, m0));
    }

    #[test]
    fn lower_bucket_scan_finds_oversized_slab() {
        // Park a capacity-12 slab (bucket 3 holds caps 8..16), then ask for
        // 10 elements (ceil bucket 4, empty) — the bucket-3 scan must find it.
        let mut v = Vec::with_capacity(12);
        v.push(0.0f32);
        let cap = v.capacity();
        assert!((8..16).contains(&cap));
        recycle(v);
        let hits = thread_pool_hits();
        let w = take_zeroed(10);
        if cap >= 10 {
            assert_eq!(thread_pool_hits(), hits + 1);
            assert_eq!(w.capacity(), cap);
        }
        recycle(w);
    }

    #[test]
    fn high_water_tracks_held_bytes() {
        let v = take_zeroed(1 << 12);
        let held = thread_pool_held_bytes();
        recycle(v);
        assert!(thread_pool_held_bytes() >= held + 4 * (1 << 12));
        assert!(thread_pool_high_water_bytes() >= thread_pool_held_bytes());
        // Drain it back out so this test is idempotent for its thread.
        let v = take_zeroed(1 << 12);
        drop_forever(v);
    }

    /// Intentionally leaks a slab out of the pool (plain drop).
    fn drop_forever(v: Vec<f32>) {
        drop(v);
    }

    #[test]
    fn thread_local_misses_ignore_other_threads() {
        let here = thread_pool_misses();
        std::thread::spawn(|| {
            // A fresh thread has a cold pool: this must miss over there...
            let v = take_zeroed(1 << 20);
            assert!(thread_pool_misses() >= 1);
            drop(v);
        })
        .join()
        .unwrap();
        // ...without charging the miss to this thread.
        assert_eq!(thread_pool_misses(), here);
    }
}
